package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// traceDigest hashes a trace's exact content: the initial instance's
// bandwidth bits (b0, then each class prefixed by its length) and every
// event's String, one per line. String prints bandwidths and factors
// with %g, the shortest form that reads back to the same float64.
func traceDigest(tr *Trace) []byte {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(math.Float64bits(tr.Initial.B0))
	for _, class := range [][]float64{tr.Initial.OpenBW, tr.Initial.GuardedBW} {
		word(uint64(len(class)))
		for _, v := range class {
			word(math.Float64bits(v))
		}
	}
	for _, ev := range tr.Events {
		fmt.Fprintln(h, ev)
	}
	return h.Sum(nil)
}

// TestTraceDigests pins the churn trace generator's draws bit for bit:
// seeds 1–5 at three platform sizes, 200 events each. A refactor of
// the generator or of Apply must keep the RNG call order, the event-mix
// thresholds and the rank choices exactly as they are.
func TestTraceDigests(t *testing.T) {
	want := map[int]string{
		8:  "954a320cb894594150b3946cb1a2cf6d749a7893bbcc21d21f10b77ac4a6bb56",
		20: "f0c8ff1e48fbcdcb08842d603f94fc41029a822296f6b735f451b165f67b244d",
		64: "41d9baff01fc58fb363dfec2ca1220aef33d839d59453d148d6440be2bd38ada",
	}
	for _, nodes := range []int{8, 20, 64} {
		h := sha256.New()
		for seed := int64(1); seed <= 5; seed++ {
			tr, err := GenerateTrace(TraceConfig{Nodes: nodes, POpen: 0.7, Events: 200, Seed: seed})
			if err != nil {
				t.Fatalf("nodes %d seed %d: %v", nodes, seed, err)
			}
			h.Write(traceDigest(tr))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[nodes] {
			t.Errorf("nodes %d: digest %s, want %s", nodes, got, want[nodes])
		}
	}
}
