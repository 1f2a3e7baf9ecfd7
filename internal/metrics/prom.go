package metrics

import (
	"strconv"
)

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4) into a buffer. It is the only place that knows the format: every
// family is a HELP/TYPE header followed by its samples, label values are
// escaped as the format defines (backslash, double quote and newline; every
// other byte is written raw), and summaries print their quantiles. The
// zero value is ready to use; Bytes returns what has been written.
type PromWriter struct {
	b []byte
}

// Bytes returns the rendered exposition.
func (p *PromWriter) Bytes() []byte { return p.b }

// Header writes the HELP and TYPE lines of one family (kind is "counter",
// "gauge" or "summary").
func (p *PromWriter) Header(name, kind, help string) {
	p.b = append(p.b, "# HELP "...)
	p.b = append(p.b, name...)
	p.b = append(p.b, ' ')
	p.b = appendEscaped(p.b, help, false)
	p.b = append(p.b, "\n# TYPE "...)
	p.b = append(p.b, name...)
	p.b = append(p.b, ' ')
	p.b = append(p.b, kind...)
	p.b = append(p.b, '\n')
}

// Int writes one integer sample; labels are name/value pairs.
func (p *PromWriter) Int(name string, v int64, labels ...string) {
	p.series(name, labels)
	p.b = strconv.AppendInt(p.b, v, 10)
	p.b = append(p.b, '\n')
}

// Float writes one floating-point sample in Go's shortest %g form; labels
// are name/value pairs.
func (p *PromWriter) Float(name string, v float64, labels ...string) {
	p.series(name, labels)
	p.b = strconv.AppendFloat(p.b, v, 'g', -1, 64)
	p.b = append(p.b, '\n')
}

// Counter writes a complete single-sample counter family.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.Header(name, "counter", help)
	p.Int(name, v)
}

// Gauge writes a complete single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v int64) {
	p.Header(name, "gauge", help)
	p.Int(name, v)
}

// Summary writes a summary family of h's quantiles qs, in decimal
// milliseconds at h's microsecond resolution (0 while h is empty).
func (p *PromWriter) Summary(name, help string, h *LatencyHistogram, qs ...float64) {
	p.Header(name, "summary", help)
	for _, q := range qs {
		p.series(name, []string{"quantile", strconv.FormatFloat(q, 'g', -1, 64)})
		p.b = strconv.AppendFloat(p.b, float64(h.Quantile(q).Microseconds())/1000, 'f', -1, 64)
		p.b = append(p.b, '\n')
	}
}

// series writes a sample's name and label set, up to the value.
func (p *PromWriter) series(name string, labels []string) {
	p.b = append(p.b, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			p.b = append(p.b, '{')
		} else {
			p.b = append(p.b, ',')
		}
		p.b = append(p.b, labels[i]...)
		p.b = append(p.b, `="`...)
		p.b = appendEscaped(p.b, labels[i+1], true)
		p.b = append(p.b, '"')
	}
	if len(labels) > 1 {
		p.b = append(p.b, '}')
	}
	p.b = append(p.b, ' ')
}

// appendEscaped appends s with the exposition format's escapes: a
// backslash and a newline always, a double quote only inside a label
// value (quoted).
func appendEscaped(b []byte, s string, quoted bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quoted:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}
