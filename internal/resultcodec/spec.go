package resultcodec

import (
	"encoding/json"
	"errors"

	rescq "repro"
)

// Spec is one fully validated run configuration of a rescqd job: what a
// job record persists for each configuration and what a dispatch batch
// sends a worker. Exactly one of Benchmark, CircuitText or Experiment is
// set. Its JSON form (field names as declared) is what job records held
// before the typed encoding.
type Spec struct {
	Benchmark   string
	Name        string // label for CircuitText runs
	CircuitText string
	Experiment  string
	Quick       bool
	Opts        rescq.Options
	// KeepLatencies retains the per-gate latency arrays in the stored
	// result (tens of thousands of ints per run; stripped otherwise).
	KeepLatencies bool
}

// specsTag is the first byte of every typed spec list: format 2. A JSON
// spec list starts with '['.
const specsTag byte = 2

// Spec flag bits (the first byte of each encoded spec).
const (
	specQuick         = 1 << 0
	specKeepLatencies = 1 << 1
	specFlagsKnown    = specQuick | specKeepLatencies
)

// minSpecBytes is the smallest encoded spec: a flags byte, six empty
// strings, a zero param count, five one-byte varints and two floats.
const minSpecBytes = 1 + 6 + 1 + 5 + 2*8

var errCorruptSpecs = errors.New("resultcodec: malformed typed spec list")

// AppendSpecs appends the typed encoding of a spec list to dst.
func AppendSpecs(dst []byte, specs ...*Spec) ([]byte, error) {
	w := writer{b: append(dst, specsTag)}
	w.uvarint(uint64(len(specs)))
	for _, s := range specs {
		var flags byte
		if s.Quick {
			flags |= specQuick
		}
		if s.KeepLatencies {
			flags |= specKeepLatencies
		}
		w.b = append(w.b, flags)
		w.str(s.Benchmark)
		w.str(s.Name)
		w.str(s.CircuitText)
		w.str(s.Experiment)
		w.options(&s.Opts)
	}
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// DecodeSpecs parses a typed spec list, refusing every byte string
// AppendSpecs cannot produce, a JSON spec list included.
func DecodeSpecs(p []byte) ([]Spec, error) {
	if len(p) == 0 || p[0] != specsTag {
		return nil, errCorruptSpecs
	}
	rd := reader{b: p[1:]}
	specs := make([]Spec, rd.count(minSpecBytes))
	for i := range specs {
		if rd.err != nil {
			break
		}
		s := &specs[i]
		if len(rd.b) == 0 || rd.b[0]&^specFlagsKnown != 0 {
			return nil, errCorruptSpecs
		}
		s.Quick = rd.b[0]&specQuick != 0
		s.KeepLatencies = rd.b[0]&specKeepLatencies != 0
		rd.b = rd.b[1:]
		s.Benchmark = rd.str()
		s.Name = rd.str()
		s.CircuitText = rd.str()
		s.Experiment = rd.str()
		rd.options(&s.Opts)
	}
	if rd.err == nil && len(rd.b) != 0 {
		rd.err = errCorruptSpecs // trailing bytes
	}
	if rd.err != nil {
		return nil, rd.err
	}
	return specs, nil
}

// JSON returns a payload's JSON form: a typed result or spec list is
// decoded and marshalled, which reproduces the JSON it had before it was
// encoded; any other payload is returned as it is.
func JSON(p []byte) ([]byte, error) {
	if len(p) == 0 {
		return p, nil
	}
	switch p[0] {
	case tag:
		res, err := decodeTyped(p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case specsTag:
		specs, err := DecodeSpecs(p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(specs)
	}
	return p, nil
}
