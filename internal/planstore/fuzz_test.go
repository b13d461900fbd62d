package planstore

import (
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzDecodeRecord pins the decoder contract: any byte sequence maps to
// a valid record, ErrTruncated, or ErrCorrupt — never a panic, never an
// untyped error, and a frame length with an error only for ErrCorrupt
// (a whole frame that fails its check), within the input. A successful decode must survive an encode/decode
// round trip with both documents byte-identical (the disk tier's
// guarantee); the frame itself may differ when a hand-built header
// orders its JSON keys unlike the canonical encoder.
func FuzzDecodeRecord(f *testing.F) {
	rec, err := encodeRecord([]byte(`{"v":1}`), []byte(`{"plan":true}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:len(rec)-3])                         // torn payload tail
	f.Add(rec[:10])                                 // torn header
	f.Add([]byte{})                                 // empty log
	f.Add([]byte("{\"v\":2}\nxx"))                  // wrong version
	f.Add([]byte("not json at all\n"))              // malformed header
	f.Add(append(append([]byte{}, rec...), rec...)) // two records back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		key, reqDoc, planDoc, n, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			// Only a whole frame that fails its check has a length.
			if n != 0 && (!errors.Is(err, ErrCorrupt) || n < 0 || n > len(data)) {
				t.Fatalf("frame length %d for %d input bytes with %v", n, len(data), err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d out of range for %d input bytes", n, len(data))
		}
		if len(reqDoc) == 0 || len(planDoc) == 0 {
			t.Fatalf("decoded empty documents: req %d plan %d", len(reqDoc), len(planDoc))
		}
		if sha256.Sum256(reqDoc) != key {
			t.Fatal("decoded request does not hash to the returned key")
		}
		re, err := encodeRecord(reqDoc, planDoc)
		if err != nil {
			t.Fatalf("re-encode of decoded record: %v", err)
		}
		key2, req2, plan2, n2, err := decodeRecord(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoded record does not decode cleanly: n=%d err=%v", n2, err)
		}
		if key2 != key || string(req2) != string(reqDoc) || string(plan2) != string(planDoc) {
			t.Fatal("decode/encode round trip drifted")
		}
	})
}
