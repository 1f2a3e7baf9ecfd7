package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// binVersion is the binary log format version carried in the file header.
// A reader that sees a version it does not speak refuses the whole file
// rather than guessing at frame boundaries.
const binVersion = 1

// walMagic is the 8-byte header opening every binary log and snapshot
// file: five magic bytes, a NUL, the format version, and a newline (so
// `head` on a binary log prints one clean line instead of flooding the
// terminal). JSON-era logs are headerless — the first byte of a record is
// always '{' — which is what makes per-file format sniffing unambiguous.
var walMagic = [8]byte{'R', 'Q', 'W', 'A', 'L', 0, binVersion, '\n'}

// Binary record kinds: payload byte 0 of every frame.
const (
	binKindJob    = 1
	binKindResult = 2
	binKindDone   = 3
	binKindState  = 4
)

// flagCompressed (payload byte 1, bit 0) marks a flate-compressed body.
const flagCompressed = 1 << 0

const (
	// maxRecordBytes caps one record's payload, matching the JSON
	// replayer's maximum line length: anything larger is torn or hostile.
	maxRecordBytes = 64 * 1024 * 1024
	// compressMin is the body size at which flate is worth its CPU: the
	// analytics state blob clears it. Only state records are compressed
	// (see encodeRecord).
	compressMin = 256
)

// errCorruptRecord marks a complete-but-invalid binary frame: CRC
// mismatch, an implausible length, or fields that decode to garbage. A
// torn (incomplete) frame is reported as io.ErrUnexpectedEOF instead.
var errCorruptRecord = errors.New("store: corrupt binary record")

// appendBlob appends a uvarint length prefix followed by the bytes.
func appendBlob(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// binaryBody renders a record's fields (kind-specific, all blobs
// length-prefixed) without the frame envelope.
func binaryBody(v any) (kind byte, body []byte, err error) {
	switch r := v.(type) {
	case JobRecord:
		created, err := r.Created.MarshalBinary()
		if err != nil {
			return 0, nil, err
		}
		body = appendBlob(body, []byte(r.ID))
		body = appendBlob(body, []byte(r.Kind))
		body = appendBlob(body, created)
		body = appendBlob(body, r.Specs)
		// The tenant rides as an optional trailing blob: omitted when empty,
		// so tenantless records stay byte-identical to what version-1 logs
		// have always held, and old readers' "no trailing bytes" check is
		// the only thing a new field costs.
		if r.Tenant != "" {
			body = appendBlob(body, []byte(r.Tenant))
		}
		return binKindJob, body, nil
	case ResultRecord:
		if r.Index < 0 {
			return 0, nil, fmt.Errorf("store: negative result index %d", r.Index)
		}
		body = make([]byte, 0, len(r.JobID)+len(r.Key)+len(r.Result)+4*binary.MaxVarintLen64)
		body = appendBlob(body, []byte(r.JobID))
		body = binary.AppendUvarint(body, uint64(r.Index))
		body = appendBlob(body, []byte(r.Key))
		body = appendBlob(body, r.Result)
		return binKindResult, body, nil
	case DoneRecord:
		body = appendBlob(body, []byte(r.JobID))
		body = appendBlob(body, []byte(r.State))
		body = appendBlob(body, []byte(r.Error))
		return binKindDone, body, nil
	case StateRecord:
		body = appendBlob(body, []byte(r.Name))
		body = appendBlob(body, r.Payload)
		return binKindState, body, nil
	}
	return 0, nil, fmt.Errorf("store: unencodable record %T", v)
}

// One flate writer, over a megabyte of state, serves every deflate under
// flateMu: only state snapshots are compressed, so calls are rare, and a
// sync.Pool would lose the writer at every GC cycle and make nearly every
// call build a new one. flateReaders pools the decompressors: replay
// inflates every compressed frame, which includes each job record and
// each result record of a log written before those went uncompressed.
var (
	flateMu      sync.Mutex
	flateWriter  *flate.Writer
	flateReaders sync.Pool
)

// deflate compresses body, reporting false when compression does not pay.
func deflate(body []byte) ([]byte, bool) {
	var buf bytes.Buffer
	flateMu.Lock()
	defer flateMu.Unlock()
	if flateWriter == nil {
		flateWriter, _ = flate.NewWriter(&buf, flate.BestSpeed) // errs only on a bad level
	} else {
		flateWriter.Reset(&buf)
	}
	if _, err := flateWriter.Write(body); err != nil {
		return nil, false
	}
	if err := flateWriter.Close(); err != nil {
		return nil, false
	}
	if buf.Len() >= len(body) {
		return nil, false
	}
	return buf.Bytes(), true
}

// inflate decompresses a record body, capped at limit bytes.
func inflate(body []byte, limit int64) ([]byte, error) {
	zr, _ := flateReaders.Get().(io.ReadCloser)
	if zr == nil {
		zr = flate.NewReader(bytes.NewReader(body))
	} else if err := zr.(flate.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
		return nil, err
	}
	defer flateReaders.Put(zr)
	out, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, errCorruptRecord
	}
	return out, nil
}

// encodeRecord frames one record, ready for a single append Write:
//
//	uvarint payload length | payload | CRC32-IEEE(payload), little-endian
//
// with payload = kind byte, flags byte, then the (possibly
// flate-compressed) field body. Writing a whole frame in one Write call is
// the crash-safety contract: a crash can truncate the final record but
// never interleave two. The length prefix is what makes a torn tail
// detectable by construction; the CRC is what catches bit rot and
// partially-flushed frames whose length survived.
//
// Only state records are compressed. Result records, one per completed
// configuration and so the bulk of the appends, and job records hold the
// service's typed encodings, which are already compact: deflating them
// cost more CPU than the write itself, and inflating a job's specs at
// replay cost more than decoding them. Logs written before that hold
// flate-compressed job and result frames, which replay inflates and
// compaction copies as they are.
func encodeRecord(v any) ([]byte, error) {
	kind, body, err := binaryBody(v)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	flags := byte(0)
	if kind == binKindState && len(body) >= compressMin {
		if c, ok := deflate(body); ok {
			body, flags = c, flagCompressed
		}
	}
	n := 2 + len(body)
	frame := binary.AppendUvarint(make([]byte, 0, n+binary.MaxVarintLen64+4), uint64(n))
	start := len(frame)
	frame = append(frame, kind, flags)
	frame = append(frame, body...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[start:]))
	return frame, nil
}

// readBlob splits a length-prefixed field off b.
func readBlob(b []byte) (val, rest []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, nil, errCorruptRecord
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// decodeBinaryBody parses a record's field body back into its typed
// record, with the Type field reconstructed so binary replay is
// indistinguishable from JSON replay downstream.
func decodeBinaryBody(kind byte, body []byte) (any, error) {
	var f [4][]byte
	fields := func(n int, varintAt int) error {
		var err error
		for i := 0; i < n; i++ {
			if i == varintAt {
				v, sz := binary.Uvarint(body)
				if sz <= 0 || v > maxRecordBytes {
					return errCorruptRecord
				}
				f[i], body = binary.AppendUvarint(nil, v), body[sz:]
				continue
			}
			if f[i], body, err = readBlob(body); err != nil {
				return err
			}
		}
		if len(body) != 0 {
			return errCorruptRecord // trailing junk inside a checksummed frame
		}
		return nil
	}
	switch kind {
	case binKindJob:
		// Hand-rolled instead of fields(): the tenant is an optional fifth
		// blob, so "body consumed exactly" is checked after deciding whether
		// one is present. Records written before tenancy end at blob four.
		var err error
		for i := 0; i < 4; i++ {
			if f[i], body, err = readBlob(body); err != nil {
				return nil, err
			}
		}
		var tenant []byte
		if len(body) > 0 {
			if tenant, body, err = readBlob(body); err != nil {
				return nil, err
			}
		}
		if len(body) != 0 {
			return nil, errCorruptRecord
		}
		var created time.Time
		if err := created.UnmarshalBinary(f[2]); err != nil {
			return nil, errCorruptRecord
		}
		rec := JobRecord{Type: recJob, ID: string(f[0]), Kind: string(f[1]), Created: created, Tenant: string(tenant)}
		if len(f[3]) > 0 {
			rec.Specs = json.RawMessage(f[3])
		}
		return rec, nil
	case binKindResult:
		if err := fields(4, 1); err != nil {
			return nil, err
		}
		idx, _ := binary.Uvarint(f[1])
		rec := ResultRecord{Type: recResult, JobID: string(f[0]), Index: int(idx), Key: string(f[2])}
		if len(f[3]) > 0 {
			rec.Result = json.RawMessage(f[3])
		}
		return rec, nil
	case binKindDone:
		if err := fields(3, -1); err != nil {
			return nil, err
		}
		return DoneRecord{Type: recDone, JobID: string(f[0]), State: string(f[1]), Error: string(f[2])}, nil
	case binKindState:
		if err := fields(2, -1); err != nil {
			return nil, err
		}
		rec := StateRecord{Type: recState, Name: string(f[0])}
		if len(f[1]) > 0 {
			rec.Payload = json.RawMessage(f[1])
		}
		return rec, nil
	}
	return nil, errCorruptRecord
}

// peekFrameSize reports the size of the binary frame at br's read
// position — length prefix, payload and CRC — without consuming it. The
// result is meaningful only when readBinaryRecord then reads the frame
// successfully.
func peekFrameSize(br *bufio.Reader) int {
	hdr, _ := br.Peek(binary.MaxVarintLen64)
	n, sz := binary.Uvarint(hdr)
	if sz <= 0 || n > maxRecordBytes {
		return 0
	}
	return sz + int(n) + 4
}

// verifyFrame checks that b is exactly one intact binary frame: its length
// prefix spans all of b and its CRC matches.
func verifyFrame(b []byte) error {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n < 2 || n > maxRecordBytes || uint64(len(b)-sz) != n+4 {
		return errCorruptRecord
	}
	payload := b[sz : sz+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[sz+int(n):]) {
		return errCorruptRecord
	}
	return nil
}

// jsonHead is the type discriminator every JSON log line carries.
type jsonHead struct {
	Type string `json:"type"`
}

// errUnknownRecord marks a JSON line whose type no record kind claims.
var errUnknownRecord = errors.New("store: unknown record type")

// decodeJSONRecord parses one JSON log line of the given record type.
func decodeJSONRecord(typ string, line []byte) (any, error) {
	switch typ {
	case recJob:
		return unmarshalRecord[JobRecord](line)
	case recResult:
		return unmarshalRecord[ResultRecord](line)
	case recDone:
		return unmarshalRecord[DoneRecord](line)
	case recState:
		return unmarshalRecord[StateRecord](line)
	}
	return nil, errUnknownRecord
}

func unmarshalRecord[R any](line []byte) (any, error) {
	var r R
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeJSONLine decodes one JSON-era log line: the migrating
// compaction's path for records it re-encodes instead of copying.
func decodeJSONLine(b []byte) (any, error) {
	var head jsonHead
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, err
	}
	return decodeJSONRecord(head.Type, b)
}

// readBinaryRecord reads one frame off br. Errors classify the failure:
// io.EOF is a clean end of stream, io.ErrUnexpectedEOF a torn (incomplete)
// frame — the crash signature — and errCorruptRecord a complete frame that
// failed its CRC or decoded to garbage. complete reports whether a whole
// frame was consumed, which is what lets the replayer tell a tolerable
// corrupt tail from fatal mid-log damage (records following it).
func readBinaryRecord(br *bufio.Reader) (rec any, complete bool, err error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, false, io.ErrUnexpectedEOF
	}
	if n < 2 || n > maxRecordBytes {
		return nil, false, fmt.Errorf("%w: frame length %d", errCorruptRecord, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, false, io.ErrUnexpectedEOF
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, false, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, true, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	kind, flags, body := payload[0], payload[1], payload[2:]
	if flags&^byte(flagCompressed) != 0 {
		return nil, true, fmt.Errorf("%w: unknown flags %#x", errCorruptRecord, flags)
	}
	if flags&flagCompressed != 0 {
		out, err := inflate(body, maxRecordBytes)
		if err != nil {
			return nil, true, fmt.Errorf("%w: bad compressed body", errCorruptRecord)
		}
		body = out
	}
	rec, err = decodeBinaryBody(kind, body)
	if err != nil {
		return nil, true, err
	}
	return rec, true, nil
}

// fileFormat is what a log or snapshot file holds, sniffed from its first
// bytes at replay time.
type fileFormat uint8

const (
	formatEmpty  fileFormat = iota // no bytes yet
	formatBinary                   // the magic header, then binary frames
	formatJSON                     // headerless JSON lines: a JSON-era file
)

// sniffFormat inspects the opening bytes of a log stream: the binary magic
// selects the binary replayer (consuming the header), and anything else is
// a JSON-era log. An unknown binary version is refused outright.
func sniffFormat(br *bufio.Reader) (fileFormat, error) {
	hdr, err := br.Peek(len(walMagic))
	if len(hdr) == 0 {
		if err == nil || err == io.EOF {
			return formatEmpty, nil
		}
		return formatEmpty, err
	}
	if len(hdr) == len(walMagic) && bytes.Equal(hdr, walMagic[:]) {
		br.Discard(len(walMagic))
		return formatBinary, nil
	}
	if len(hdr) >= 7 && bytes.Equal(hdr[:6], walMagic[:6]) && hdr[6] != binVersion {
		return formatEmpty, fmt.Errorf("store: unsupported binary log version %d (this build reads version %d)", hdr[6], binVersion)
	}
	return formatJSON, nil
}
