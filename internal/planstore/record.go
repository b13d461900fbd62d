// Package planstore persists solved plans as canonical wire documents
// and serves them back two ways: byte-identical under the exact
// content address (the cache's disk tier, surviving daemon restarts),
// and as warm starts for *similar* instances (the repair tier —
// verified, never approximate). The nearest stored instance within the
// node-multiset edit budget is found by an exact scan of in-memory
// signatures that drops each record as soon as it cannot beat the best
// so far; the signatures are rebuilt when the log is replayed on open.
//
// On disk a store is one directory holding one file:
//
//	plans.log   append-only records, each a one-line JSON header
//	            followed by the raw canonical request and plan
//	            documents (the wire codec is the only format, on disk
//	            as on the network)
//
// A record's key is the SHA-256 of its request document — the same
// address engine.Cache uses — so the store is content-addressed end to
// end: decode re-checks the hash, and a served document is provably
// the one that was stored. Torn tails from a crash mid-append are
// detected by the framing (length prefixes + checksum) and truncated
// away on open; everything before the tear stays served. A whole
// record that fails its checksum or address is skipped instead, and
// the records after it stay served. Open's replay is the only reader
// of the log, and Stats.Problems keeps what it truncated or skipped.
package planstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed decode errors. Decoders never panic: any byte sequence maps to
// a record, ErrTruncated, or ErrCorrupt (fuzz-pinned).
var (
	// ErrCorrupt marks bytes that cannot be a record regardless of what
	// may follow: a malformed or oversized header, a checksum or
	// content-address mismatch (the one case with a known frame length).
	ErrCorrupt = errors.New("planstore: corrupt record")
	// ErrTruncated marks a prefix of a valid record — the torn tail a
	// crash mid-append leaves behind. More bytes could complete it;
	// Open treats it as the end of the log.
	ErrTruncated = errors.New("planstore: truncated record")
)

// recordHeader is the one-line JSON frame in front of each record's
// payload. Key is the hex SHA-256 of the request document (the content
// address), Sum the hex CRC-32C (Castagnoli — hardware-accelerated on
// amd64/arm64, and the plan document is the bulk of every record) of
// the plan document.
type recordHeader struct {
	V       int    `json:"v"`
	Key     string `json:"key"`
	ReqLen  int    `json:"req_len"`
	PlanLen int    `json:"plan_len"`
	Sum     string `json:"sum"`
}

// castagnoli is the CRC-32C table; Checksum with it compiles to the
// SSE4.2/ARMv8 CRC instructions, so summing a multi-kilobyte plan
// document costs microseconds on the persist hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	recordVersion = 1
	// maxHeaderBytes bounds the header line; a longer line without a
	// newline is corruption, not truncation.
	maxHeaderBytes = 1 << 10
	// maxDocBytes bounds each stored document, mirroring the service's
	// default body cap — a larger declared length is corruption.
	maxDocBytes = 8 << 20
)

// encodeHeader frames the newline-terminated header line for one
// request/plan document pair whose content address the caller already
// computed. Persist appends the three segments (header, request doc,
// plan doc) directly, skipping the concatenated copy of the payloads —
// a plan document runs to tens of kilobytes and sits on the solve
// path's critical section.
func encodeHeader(key [sha256.Size]byte, reqDoc, planDoc []byte) ([]byte, error) {
	if len(reqDoc) == 0 || len(reqDoc) > maxDocBytes || len(planDoc) == 0 || len(planDoc) > maxDocBytes {
		return nil, fmt.Errorf("%w: document size %d/%d out of range", ErrCorrupt, len(reqDoc), len(planDoc))
	}
	hdr, err := json.Marshal(recordHeader{
		V:       recordVersion,
		Key:     hex.EncodeToString(key[:]),
		ReqLen:  len(reqDoc),
		PlanLen: len(planDoc),
		Sum:     fmt.Sprintf("%08x", crc32.Checksum(planDoc, castagnoli)),
	})
	if err != nil {
		return nil, err
	}
	return append(hdr, '\n'), nil
}

// encodeRecord frames one request/plan document pair as a single
// contiguous buffer (tests and fuzzers; Persist uses encodeHeader and
// segmented writes instead).
func encodeRecord(reqDoc, planDoc []byte) ([]byte, error) {
	hdr, err := encodeHeader(sha256.Sum256(reqDoc), reqDoc, planDoc)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(hdr)+len(reqDoc)+len(planDoc))
	out = append(out, hdr...)
	out = append(out, reqDoc...)
	out = append(out, planDoc...)
	return out, nil
}

// decodeRecord reads one record off the front of data, returning the
// content address, the two document payloads (sub-slices of data — the
// caller owns the aliasing), and the total frame length. The content
// address and plan checksum are re-verified, so a decoded record is
// exactly what encodeRecord framed. A whole, well-framed record whose
// address or checksum fails is ErrCorrupt with its frame length n, so
// the next record can still be read; every other error has n == 0.
func decodeRecord(data []byte) (key [sha256.Size]byte, reqDoc, planDoc []byte, n int, err error) {
	limit := len(data)
	if limit > maxHeaderBytes {
		limit = maxHeaderBytes
	}
	nl := -1
	for i := 0; i < limit; i++ {
		if data[i] == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		if len(data) < maxHeaderBytes {
			return key, nil, nil, 0, fmt.Errorf("%w: header not terminated in %d bytes", ErrTruncated, len(data))
		}
		return key, nil, nil, 0, fmt.Errorf("%w: no header newline within %d bytes", ErrCorrupt, maxHeaderBytes)
	}
	var hdr recordHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return key, nil, nil, 0, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if hdr.V != recordVersion {
		return key, nil, nil, 0, fmt.Errorf("%w: header version %d", ErrCorrupt, hdr.V)
	}
	if hdr.ReqLen <= 0 || hdr.ReqLen > maxDocBytes || hdr.PlanLen <= 0 || hdr.PlanLen > maxDocBytes {
		return key, nil, nil, 0, fmt.Errorf("%w: declared lengths %d/%d out of range", ErrCorrupt, hdr.ReqLen, hdr.PlanLen)
	}
	keyBytes, err := hex.DecodeString(hdr.Key)
	if err != nil || len(keyBytes) != sha256.Size {
		return key, nil, nil, 0, fmt.Errorf("%w: malformed key %q", ErrCorrupt, hdr.Key)
	}
	n = nl + 1 + hdr.ReqLen + hdr.PlanLen
	if len(data) < n {
		return key, nil, nil, 0, fmt.Errorf("%w: %d of %d payload bytes", ErrTruncated, len(data)-nl-1, hdr.ReqLen+hdr.PlanLen)
	}
	reqDoc = data[nl+1 : nl+1+hdr.ReqLen]
	planDoc = data[nl+1+hdr.ReqLen : n]
	if sha256.Sum256(reqDoc) != [sha256.Size]byte(keyBytes) {
		return key, nil, nil, n, fmt.Errorf("%w: request bytes do not hash to the record key", ErrCorrupt)
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(planDoc, castagnoli)); got != hdr.Sum {
		return key, nil, nil, n, fmt.Errorf("%w: plan checksum %s, header says %s", ErrCorrupt, got, hdr.Sum)
	}
	copy(key[:], keyBytes)
	return key, reqDoc, planDoc, n, nil
}
