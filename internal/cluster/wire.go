package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// BinaryContentType labels binary-framed execute requests and responses,
// the only format the execute endpoint speaks.
const BinaryContentType = "application/x-rescq-binary"

// ErrUnsupportedMediaType marks an execute request whose Content-Type or
// Content-Encoding this build does not speak; workers answer it with 415.
var ErrUnsupportedMediaType = errors.New("cluster: unsupported media type")

// wireVersion is the binary wire format version, carried in the frame
// magic. A frame with an unknown version is rejected whole.
const wireVersion = 1

// wireMagic opens every binary wire frame.
var wireMagic = [4]byte{'R', 'Q', 'X', wireVersion}

// Frame kinds: the byte after the magic.
const (
	wireKindRequest  = 1
	wireKindResponse = 2
)

const (
	// wireCompressMin is the body size at which gzip is worth its CPU on
	// the wire; batch requests and result batches clear it easily.
	wireCompressMin = 1024
	// errorBodyDrain bounds how much of an error reply is read to keep
	// the pooled connection reusable; past it, closing is cheaper.
	errorBodyDrain = 256 << 10
)

var errBadFrame = errors.New("cluster: bad binary frame")

// appendWireBlob appends a uvarint length prefix followed by the bytes.
func appendWireBlob(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// readWireBlob splits a length-prefixed field off b, capping it at max.
func readWireBlob(b []byte, max int) (val, rest []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(max) || n > uint64(len(b)-sz) {
		return nil, nil, errBadFrame
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// sealWireFrame wraps a body into a frame: magic, kind, body, and a
// CRC32-IEEE (little-endian) over kind+body. The CRC is a transport
// integrity check, not authentication — peers are already trusted enough
// to be dialed, the checksum catches truncation and proxy mangling.
func sealWireFrame(kind byte, body []byte) []byte {
	frame := make([]byte, 0, len(wireMagic)+1+len(body)+4)
	frame = append(frame, wireMagic[:]...)
	frame = append(frame, kind)
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[len(wireMagic):]))
}

// openWireFrame validates magic, version, kind and CRC, returning the body.
func openWireFrame(frame []byte, wantKind byte) ([]byte, error) {
	if len(frame) < len(wireMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", errBadFrame, len(frame))
	}
	if !bytes.Equal(frame[:3], wireMagic[:3]) {
		return nil, fmt.Errorf("%w: bad magic", errBadFrame)
	}
	if frame[3] != wireVersion {
		return nil, fmt.Errorf("cluster: unsupported wire version %d (this build speaks version %d)",
			frame[3], wireVersion)
	}
	payload, sum := frame[len(wireMagic):len(frame)-4], frame[len(frame)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	if payload[0] != wantKind {
		return nil, fmt.Errorf("%w: kind %d, want %d", errBadFrame, payload[0], wantKind)
	}
	return payload[1:], nil
}

// EncodeExecuteRequestBinary renders a batch-dispatch request as one
// binary frame: job id, batch ordinal, then each config as index + spec.
func EncodeExecuteRequestBinary(req ExecuteRequest) []byte {
	body := appendWireBlob(nil, []byte(req.JobID))
	body = binary.AppendUvarint(body, uint64(req.Batch))
	body = binary.AppendUvarint(body, uint64(len(req.Configs)))
	for _, c := range req.Configs {
		body = binary.AppendUvarint(body, uint64(c.Index))
		body = appendWireBlob(body, c.Spec)
	}
	return sealWireFrame(wireKindRequest, body)
}

// DecodeExecuteRequestBinary strictly parses a binary batch-dispatch
// request: size capped, batch shape validated. It is the worker-side trust
// boundary for coordinator traffic (and is fuzzed).
func DecodeExecuteRequestBinary(r io.Reader) (ExecuteRequest, error) {
	frame, err := io.ReadAll(io.LimitReader(r, MaxExecuteBody+1))
	if err != nil {
		return ExecuteRequest{}, fmt.Errorf("cluster: read execute request: %w", err)
	}
	if len(frame) > MaxExecuteBody {
		return ExecuteRequest{}, fmt.Errorf("cluster: execute request exceeds %d bytes", MaxExecuteBody)
	}
	body, err := openWireFrame(frame, wireKindRequest)
	if err != nil {
		return ExecuteRequest{}, err
	}
	var req ExecuteRequest
	var blob []byte
	if blob, body, err = readWireBlob(body, MaxExecuteBody); err != nil {
		return ExecuteRequest{}, fmt.Errorf("cluster: bad execute request: job id: %w", err)
	}
	req.JobID = string(blob)
	batch, sz := binary.Uvarint(body)
	if sz <= 0 || batch > 1<<31 {
		return ExecuteRequest{}, errors.New("cluster: bad execute request: batch ordinal")
	}
	req.Batch, body = int(batch), body[sz:]
	count, sz := binary.Uvarint(body)
	if sz <= 0 || count > MaxBatchConfigs {
		return ExecuteRequest{}, fmt.Errorf("cluster: bad execute request: %d configs exceeds the %d limit",
			count, MaxBatchConfigs)
	}
	body = body[sz:]
	req.Configs = make([]ExecuteConfig, 0, count)
	for i := 0; i < int(count); i++ {
		idx, sz := binary.Uvarint(body)
		if sz <= 0 || idx > 1<<31 {
			return ExecuteRequest{}, fmt.Errorf("cluster: bad execute request: config %d index", i)
		}
		body = body[sz:]
		if blob, body, err = readWireBlob(body, MaxExecuteBody); err != nil {
			return ExecuteRequest{}, fmt.Errorf("cluster: bad execute request: config %d spec: %w", i, err)
		}
		req.Configs = append(req.Configs, ExecuteConfig{Index: int(idx), Spec: append([]byte(nil), blob...)})
	}
	if len(body) != 0 {
		return ExecuteRequest{}, errors.New("cluster: bad execute request: trailing data")
	}
	if err := req.validate(); err != nil {
		return ExecuteRequest{}, err
	}
	return req, nil
}

// EncodeExecuteResponseBinary renders a batch's results as one binary
// frame: a count, then each opaque result payload.
func EncodeExecuteResponseBinary(resp ExecuteResponse) []byte {
	body := binary.AppendUvarint(nil, uint64(len(resp.Results)))
	for _, r := range resp.Results {
		body = appendWireBlob(body, r)
	}
	return sealWireFrame(wireKindResponse, body)
}

// DecodeExecuteResponseBinary parses a binary execute response. Responses
// are deliberately not size-capped: they come from peers this node chose
// to dial, and a large batch of KeepLatencies results is legitimately
// bigger than any request bound.
func DecodeExecuteResponseBinary(frame []byte) (ExecuteResponse, error) {
	body, err := openWireFrame(frame, wireKindResponse)
	if err != nil {
		return ExecuteResponse{}, err
	}
	count, sz := binary.Uvarint(body)
	if sz <= 0 || count > MaxBatchConfigs {
		return ExecuteResponse{}, fmt.Errorf("cluster: bad execute response: %d results", count)
	}
	body = body[sz:]
	resp := ExecuteResponse{Results: make([]json.RawMessage, 0, count)}
	for i := 0; i < int(count); i++ {
		var blob []byte
		if blob, body, err = readWireBlob(body, len(frame)); err != nil {
			return ExecuteResponse{}, fmt.Errorf("cluster: bad execute response: result %d: %w", i, err)
		}
		resp.Results = append(resp.Results, append([]byte(nil), blob...))
	}
	if len(body) != 0 {
		return ExecuteResponse{}, errors.New("cluster: bad execute response: trailing data")
	}
	return resp, nil
}

// DecodeExecuteRequestAuto decodes a worker-side execute request as the
// coordinator sends it: a binary frame, gzipped when that paid. The
// Content-Type must be BinaryContentType and the Content-Encoding gzip or
// none; anything else is ErrUnsupportedMediaType. The decompressed stream
// still flows through the strictly capped binary decoder.
func DecodeExecuteRequestAuto(body io.Reader, contentType, contentEncoding string) (ExecuteRequest, error) {
	if ct, _, _ := strings.Cut(contentType, ";"); strings.TrimSpace(ct) != BinaryContentType {
		return ExecuteRequest{}, fmt.Errorf("%w: content type %q", ErrUnsupportedMediaType, contentType)
	}
	switch strings.ToLower(strings.TrimSpace(contentEncoding)) {
	case "", "identity":
	case "gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			return ExecuteRequest{}, fmt.Errorf("cluster: bad execute request: gzip: %w", err)
		}
		defer zr.Close()
		body = zr
	default:
		return ExecuteRequest{}, fmt.Errorf("%w: content encoding %q", ErrUnsupportedMediaType, contentEncoding)
	}
	return DecodeExecuteRequestBinary(body)
}

// MaybeGzip compresses a wire body when it is big enough to matter and
// compression actually pays, reporting whether it did.
func MaybeGzip(body []byte) ([]byte, bool) {
	if len(body) < wireCompressMin {
		return body, false
	}
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return body, false
	}
	if _, err := zw.Write(body); err != nil {
		return body, false
	}
	if err := zw.Close(); err != nil {
		return body, false
	}
	if buf.Len() >= len(body) {
		return body, false
	}
	return buf.Bytes(), true
}

// drainBody reads (a bounded amount of) the remaining response body so
// the pooled HTTP connection can be reused instead of torn down. Called
// before Close on every non-success and decode-failure path.
func drainBody(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, errorBodyDrain))
}
