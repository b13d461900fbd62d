package generator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/bedibe"
	"repro/internal/platform"
)

// instanceDigest hashes an instance's exact bits: b0, then every open
// and every guarded bandwidth in order, each class prefixed by its
// length.
func instanceDigest(ins *platform.Instance) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(math.Float64bits(ins.B0))
	for _, class := range [][]float64{ins.OpenBW, ins.GuardedBW} {
		word(uint64(len(class)))
		for _, v := range class {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDrawDigests pins the large-scale and trace-driven draws bit for
// bit: a refactor of the draw must keep the RNG call order, the
// classification and the tight source exactly as they are.
func TestDrawDigests(t *testing.T) {
	_, m := bedibe.Synthesize(bedibe.SynthConfig{N: 40, NoiseStd: 0.1, ObserveP: 0.8, Seed: 11})
	cases := []struct {
		name string
		draw func() (*platform.Instance, error)
		want string
	}{
		{"LargeScale/10k", func() (*platform.Instance, error) {
			return LargeScale(LargeScaleConfig{Nodes: 10_000, POpen: 0.7, Seed: 7})
		}, "cb47556b1303b990eb27c080b105777cb5db8b2c5d0ba560fc620e11fcb05837"},
		{"LargeScale/100k", func() (*platform.Instance, error) {
			return LargeScale(LargeScaleConfig{Nodes: 100_000, POpen: 0.5, Seed: 42})
		}, "8b512e35c5473786fed26b9551b13e1acbd4249faf5840384e747d2e5dd46154"},
		{"LargeScale/all-guarded", func() (*platform.Instance, error) {
			return LargeScale(LargeScaleConfig{Nodes: 1_000, POpen: 0, Seed: 9})
		}, "371bbdee5da3c8aa5ab1f1e9d75c7262a718f6c5f18af4d0ba6de308363f6962"},
		{"FromMeasurements/per-node", func() (*platform.Instance, error) {
			return FromMeasurements(m, TraceDrivenConfig{POpen: 0.7, Seed: 5})
		}, "334baee3836068c52c2a192698bc98d228de751e0c541d2ba6d9bff5faf8439e"},
		{"FromMeasurements/resampled", func() (*platform.Instance, error) {
			return FromMeasurements(m, TraceDrivenConfig{Nodes: 10_000, POpen: 0.7, Seed: 5})
		}, "e0789c4e9216b4dc5a2fa13f3d46af12bf446c3d9a69c7c61e9b3517c561a902"},
		{"FromMeasurements/per-node-all-guarded", func() (*platform.Instance, error) {
			return FromMeasurements(m, TraceDrivenConfig{POpen: 0, Seed: 3})
		}, "f36a5912af2245495b1fd285b554ab533faa11423df9503db3c62ba0b54fe959"},
	}
	for _, tc := range cases {
		ins, err := tc.draw()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := instanceDigest(ins); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
