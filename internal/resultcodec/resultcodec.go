// Package resultcodec defines the two payloads rescqd persists and
// dispatches, with their typed binary encodings: ConfigResult, the result
// of one run configuration (every WAL result record, every dispatch
// response), and Spec, one run configuration (the spec list of every WAL
// job record, every config of a dispatch batch).
//
// # Result encoding
//
// A typed result is a tag byte (0x01, which no JSON document starts
// with), a flags byte, then the fields in a fixed order with no names:
//
//	tag | flags | index | benchmark | scheduler | layout
//	    | [options]  scheduler | layout | params | distance | phys_error
//	                 | k | tau_mst | compression | runs | seed
//	    | [summary]  benchmark | scheduler | runs | mean_cycles
//	                 | min_cycles | max_cycles | std_cycles | mean_idle
//	    | report | error
//
// with each summary run as
//
//	scheduler | benchmark | seed | total_cycles | cnot_latencies
//	    | rz_latencies | mean_idle_fraction | preps_started
//	    | injections_count | edge_rotations
//
// The flags byte marks which of the optional parts are present and holds
// the booleans (see the flag constants). Bracketed parts are present only
// when their flag is set.
//
// # Spec list encoding
//
// A typed spec list is a tag byte (0x02; a JSON spec list starts with
// '['), a spec count, then each spec as
//
//	flags | benchmark | name | circuit_text | experiment
//	      | scheduler | layout | params | distance | phys_error
//	      | k | tau_mst | compression | runs | seed
//
// where the options part is laid out as in a result, and the flags byte
// holds Quick (bit 0) and KeepLatencies (bit 1).
//
// # Common rules
//
// Integers are zigzag varints, counts and string lengths uvarints, floats
// their IEEE-754 bits as 8 little-endian bytes, strings UTF-8 bytes after
// their length, params their keys in increasing order each followed by
// its value, and latency arrays a count followed by that many integers.
//
// Both encodings are canonical: Decode and DecodeSpecs accept exactly the
// bytes Append and AppendSpecs produce (minimal varints, sorted unique
// params, known flag bits, no trailing bytes, finite floats, valid
// UTF-8), so every accepted payload re-encodes to itself, and a decoded
// payload marshals to the same JSON it marshalled to before it was
// encoded. Payloads that JSON cannot hold either (NaN or infinite floats)
// are refused by the encoders.
//
// Result payloads written before the typed encoding existed are JSON
// documents, and Decode and JSON accept both forms. A JSON spec list is
// the caller's to sniff (it starts with '['); DecodeSpecs refuses it.
package resultcodec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"unicode/utf8"

	rescq "repro"
)

// ConfigResult reports one completed run configuration of a job. Its JSON
// encoding is the daemon's per-configuration API payload.
type ConfigResult struct {
	Index     int            `json:"index"`
	Benchmark string         `json:"benchmark,omitempty"`
	Scheduler string         `json:"scheduler,omitempty"`
	Layout    string         `json:"layout,omitempty"`
	Options   *rescq.Options `json:"options,omitempty"`
	Cached    bool           `json:"cached"`
	Summary   *rescq.Summary `json:"summary,omitempty"`
	Report    string         `json:"report,omitempty"` // experiment payloads
	Error     string         `json:"error,omitempty"`
}

// tag is the first byte of every typed payload: format 1. A JSON payload
// starts with '{'.
const tag byte = 1

// Flag bits (payload byte 1). Bit 3 once marked Options.Parallel; results
// are persisted with canonical options, which never set it, so it is
// refused like any unknown bit.
const (
	flagOptions = 1 << 0 // Options != nil; its fields follow
	flagSummary = 1 << 1 // Summary != nil; its fields follow
	flagCached  = 1 << 2 // Cached
	flagNilRuns = 1 << 4 // Summary.Runs == nil rather than empty (only with flagSummary)
	flagsKnown  = flagOptions | flagSummary | flagCached | flagNilRuns
)

// Minimum encoded sizes, which bound how many elements a count may claim
// before anything is allocated for them.
const (
	minParamBytes = 2  // two empty strings
	minRunBytes   = 17 // two empty strings, six one-byte varints, one float
)

var (
	errCorrupt     = errors.New("resultcodec: malformed typed result")
	errNonFinite   = errors.New("resultcodec: non-finite float")
	errInvalidUTF8 = errors.New("resultcodec: string is not valid UTF-8")
)

// Append appends the typed encoding of r to dst.
func Append(dst []byte, r *ConfigResult) ([]byte, error) {
	var flags byte
	if r.Options != nil {
		flags |= flagOptions
	}
	if r.Summary != nil {
		flags |= flagSummary
		if r.Summary.Runs == nil {
			flags |= flagNilRuns
		}
	}
	if r.Cached {
		flags |= flagCached
	}
	w := writer{b: append(dst, tag, flags)}
	w.int(int64(r.Index))
	w.str(r.Benchmark)
	w.str(r.Scheduler)
	w.str(r.Layout)
	if r.Options != nil {
		w.options(r.Options)
	}
	if s := r.Summary; s != nil {
		w.str(s.Benchmark)
		w.str(s.Scheduler)
		w.uvarint(uint64(len(s.Runs)))
		for i := range s.Runs {
			run := &s.Runs[i]
			w.str(run.Scheduler)
			w.str(run.Benchmark)
			w.int(run.Seed)
			w.int(int64(run.TotalCycles))
			w.ints(run.CNOTLatencies)
			w.ints(run.RzLatencies)
			w.f64(run.MeanIdleFraction)
			w.int(int64(run.PrepsStarted))
			w.int(int64(run.InjectionsCount))
			w.int(int64(run.EdgeRotations))
		}
		w.f64(s.MeanCycles)
		w.int(int64(s.MinCycles))
		w.int(int64(s.MaxCycles))
		w.f64(s.StdCycles)
		w.f64(s.MeanIdle)
	}
	w.str(r.Report)
	w.str(r.Error)
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// Decode parses a result payload of either form into r: a typed payload
// (first byte tag) or a JSON document.
func Decode(p []byte, r *ConfigResult) error {
	if len(p) > 0 && p[0] == tag {
		res, err := decodeTyped(p)
		if err != nil {
			return err
		}
		*r = res
		return nil
	}
	*r = ConfigResult{}
	return json.Unmarshal(p, r)
}

// decodeTyped parses a typed payload, refusing every byte string Append
// cannot produce.
func decodeTyped(p []byte) (ConfigResult, error) {
	if len(p) < 2 || p[0] != tag || p[1]&^flagsKnown != 0 {
		return ConfigResult{}, errCorrupt
	}
	flags := p[1]
	if flags&flagNilRuns != 0 && flags&flagSummary == 0 {
		return ConfigResult{}, errCorrupt
	}
	rd := reader{b: p[2:]}
	res := ConfigResult{Cached: flags&flagCached != 0}
	res.Index = rd.int()
	res.Benchmark = rd.str()
	res.Scheduler = rd.str()
	res.Layout = rd.str()
	if flags&flagOptions != 0 {
		res.Options = new(rescq.Options)
		rd.options(res.Options)
	}
	if flags&flagSummary != 0 {
		s := &rescq.Summary{}
		s.Benchmark = rd.str()
		s.Scheduler = rd.str()
		n := rd.count(minRunBytes)
		if flags&flagNilRuns != 0 {
			if n != 0 {
				return ConfigResult{}, errCorrupt
			}
		} else {
			s.Runs = make([]rescq.Result, n)
		}
		for i := range s.Runs {
			run := &s.Runs[i]
			run.Scheduler = rd.str()
			run.Benchmark = rd.str()
			run.Seed = rd.int64()
			run.TotalCycles = rd.int()
			run.CNOTLatencies = rd.ints()
			run.RzLatencies = rd.ints()
			run.MeanIdleFraction = rd.f64()
			run.PrepsStarted = rd.int()
			run.InjectionsCount = rd.int()
			run.EdgeRotations = rd.int()
		}
		s.MeanCycles = rd.f64()
		s.MinCycles = rd.int()
		s.MaxCycles = rd.int()
		s.StdCycles = rd.f64()
		s.MeanIdle = rd.f64()
		res.Summary = s
	}
	res.Report = rd.str()
	res.Error = rd.str()
	if rd.err == nil && len(rd.b) != 0 {
		rd.err = errCorrupt // trailing bytes
	}
	if rd.err != nil {
		return ConfigResult{}, rd.err
	}
	return res, nil
}

// writer appends fields, keeping the first error.
type writer struct {
	b   []byte
	err error
}

func (w *writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) int(v int64)      { w.b = binary.AppendVarint(w.b, v) }

func (w *writer) str(s string) {
	if !utf8.ValidString(s) && w.err == nil {
		w.err = errInvalidUTF8
	}
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *writer) f64(f float64) {
	if (math.IsNaN(f) || math.IsInf(f, 0)) && w.err == nil {
		w.err = errNonFinite
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

func (w *writer) ints(v []int) {
	w.uvarint(uint64(len(v)))
	for _, x := range v {
		w.int(int64(x))
	}
}

func (w *writer) params(m map[string]string) {
	w.uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

// options appends every field of o, in the order reader.options reads them.
func (w *writer) options(o *rescq.Options) {
	w.str(string(o.Scheduler))
	w.str(o.Layout)
	w.params(o.LayoutParams)
	w.int(int64(o.Distance))
	w.f64(o.PhysError)
	w.int(int64(o.K))
	w.int(int64(o.TauMST))
	w.f64(o.Compression)
	w.int(int64(o.Runs))
	w.int(o.Seed)
}

// reader consumes fields, keeping the first error; after one, every read
// returns a zero value.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	// A final byte of zero after a continuation byte is a padded,
	// non-minimal varint: it would not re-encode to the same bytes.
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.err = errCorrupt
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int64() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (r *reader) int() int {
	x := r.int64()
	if int64(int(x)) != x && r.err == nil {
		r.err = errCorrupt
	}
	return int(x)
}

// count reads an element count, refusing one that the remaining bytes
// cannot hold at min bytes per element.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		if r.err == nil {
			r.err = errCorrupt
		}
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	b := r.b[:n]
	r.b = r.b[n:]
	if !utf8.Valid(b) {
		r.err = errInvalidUTF8
		return ""
	}
	return string(b)
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errCorrupt
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.err = errNonFinite
		return 0
	}
	r.b = r.b[8:]
	return f
}

// ints reads a latency array; an empty one decodes as nil, which is what
// the JSON form (omitempty) holds too.
func (r *reader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.int()
	}
	return v
}

// options reads every field of an Options, in the order writer.options
// appends them.
func (r *reader) options(o *rescq.Options) {
	o.Scheduler = rescq.SchedulerKind(r.str())
	o.Layout = r.str()
	o.LayoutParams = r.params()
	o.Distance = r.int()
	o.PhysError = r.f64()
	o.K = r.int()
	o.TauMST = r.int()
	o.Compression = r.f64()
	o.Runs = r.int()
	o.Seed = r.int64()
}

// params reads a layout-param map; keys must be strictly increasing.
func (r *reader) params() map[string]string {
	n := r.count(minParamBytes)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		if i > 0 && k <= prev {
			r.err = errCorrupt
			break
		}
		m[k] = r.str()
		prev = k
	}
	return m
}
