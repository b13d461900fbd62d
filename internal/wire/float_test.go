package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// jsonFloat is the oracle for appendFloat: the writer's rule before the
// kernel, strconv's shortest digits laid out as encoding/json lays
// them out ('e' below 1e-6 and from 1e21 on, e-07 written e-7).
func jsonFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// floatOracle compares appendFloat with jsonFloat, appending to a
// non-empty prefix, and reports the first few mismatches.
type floatOracle struct {
	t          *testing.T
	got, want  []byte
	mismatches int
}

func (o *floatOracle) check(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	o.got = appendFloat(append(o.got[:0], "x:"...), f)
	o.want = jsonFloat(append(o.want[:0], "x:"...), f)
	if !bytes.Equal(o.got, o.want) {
		if o.mismatches++; o.mismatches <= 10 {
			o.t.Errorf("bits %#016x: appendFloat %q, want %q", math.Float64bits(f), o.got, o.want)
		}
	}
}

// TestAppendFloatMatchesStrconv holds the kernel to strconv under the
// JSON rule on random bit patterns, on the value ranges the solvers'
// documents carry, and on the edge cases of Schubfach and of the
// layout: every power of two with both neighbours (the irregular gap
// below one), the subnormals, the integers of the exact fast path, ±0
// and the two 'f'/'e' boundaries.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	o := &floatOracle{t: t}
	random, perRange := 10_000_000, 1_000_000
	if testing.Short() {
		random, perRange = 1_000_000, 100_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < random; i++ {
		o.check(math.Float64frombits(rng.Uint64()))
	}
	ranges := []func() float64{
		func() float64 { return 1 + 99*rng.Float64() },                 // Unif100's bandwidths
		func() float64 { return 1000 * rng.Float64() },                 // rates and throughputs
		func() float64 { return math.Exp(60*rng.Float64() - 30) },      // log-uniform over e^±30
		func() float64 { return float64(rng.Int63n(1 << 30)) },         // integers below 2^30
		func() float64 { return float64(rng.Int63n(1_000_000)) / 100 }, // hundredths
	}
	for _, draw := range ranges {
		for i := 0; i < perRange; i++ {
			o.check(draw())
		}
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		for _, f := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1))} {
			o.check(f)
			o.check(-f)
		}
	}
	// Subnormals: every significand below 2^16 (the smallest ones give
	// Schubfach fewer than two digits), then random ones.
	for m := uint64(1); m < 1<<16; m++ {
		o.check(math.Float64frombits(m))
	}
	for i := 0; i < perRange; i++ {
		o.check(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
	}
	// Integers up to 2^53: the exact fast path, and past its end.
	for n := int64(0); n < 100_000; n++ {
		o.check(float64(n))
	}
	for i := 0; i < perRange; i++ {
		o.check(float64(rng.Int63n(1<<53 + 1)))
	}
	for d := -4.0; d <= 4; d++ {
		o.check(1<<53 + d)
	}
	o.check(0)
	o.check(math.Copysign(0, -1))
	for _, edge := range []float64{1e-6, 1e21} {
		lo, hi := edge, edge
		for i := 0; i < 4; i++ {
			o.check(lo)
			o.check(-hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
	}
	o.check(math.MaxFloat64)
	o.check(math.SmallestNonzeroFloat64)
	if o.mismatches > 0 {
		t.Fatalf("%d mismatches", o.mismatches)
	}
}

// TestDecimalMatchesStrconv holds decimal to strconv.AppendUint at the
// edges of its eight-digit steps, which random float bits rarely reach:
// every length from 1 to 20 digits with 10^k−1, 10^k and 10^k+1, values
// whose eight-digit chunks are all zeros or start with zeros, random
// values and the largest.
func TestDecimalMatchesStrconv(t *testing.T) {
	vs := []uint64{math.MaxUint64, 100000000, 100000001, 10000000000000001, 9999999900000000}
	for k, p := 0, uint64(1); k <= 19; k, p = k+1, p*10 {
		vs = append(vs, p-1, p, p+1)
	}
	chunks := []uint64{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001, 99999, 1234567, 10000000, 99999999}
	for _, top := range []uint64{0, 1, 9, 18} {
		for _, mid := range chunks {
			for _, low := range chunks {
				vs = append(vs, top*1e16+mid*1e8+low)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		// Random bits, then shifted to reach every length.
		vs = append(vs, rng.Uint64()>>uint(rng.Intn(64)))
	}
	var buf [20]byte
	var want []byte
	for _, v := range vs {
		if want = strconv.AppendUint(want[:0], v, 10); !bytes.Equal(decimal(&buf, v), want) {
			t.Fatalf("decimal(%d) = %q, want %q", v, decimal(&buf, v), want)
		}
	}
}

// FuzzAppendFloat holds the kernel to strconv under the JSON rule on
// fuzzed bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{4.4, 0.1 + 0.2, 1e-6, 9.99e-7, 1e21, 5e-324, math.MaxFloat64, 1 << 53, 1e23} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		(&floatOracle{t: t}).check(math.Float64frombits(bits))
	})
}

// TestScannerFloatMatchesStrconv holds the scanner's float reader to
// strconv.ParseFloat, bit for bit and in what it refuses, on more than
// a million tokens: random bit patterns, uniforms on [1, 100] and
// scaled integers, each rendered by strconv in 'g', 'e' and 'f', at the
// shortest and at fixed precisions, and the edges of the exact fast
// path.
func TestScannerFloatMatchesStrconv(t *testing.T) {
	tokens, mismatches := 0, 0
	check := func(tok string) {
		tokens++
		s := scanner{d: []byte(tok)}
		got := s.float()
		ok := !s.bad && s.i == len(tok)
		want, err := strconv.ParseFloat(tok, 64)
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			if mismatches++; mismatches <= 10 {
				t.Errorf("%q: scanner %v (accepted %v), strconv %v (error %v)", tok, got, ok, want, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 { return 1 + 99*rng.Float64() },
		func() float64 { return float64(rng.Int63n(1<<54)) * math.Pow10(rng.Intn(60)-30) },
	}
	var buf []byte
	for _, draw := range draws {
		for i := 0; i < 40_000; i++ {
			f := draw()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			for _, format := range []byte{'g', 'e', 'f'} {
				for _, prec := range []int{-1, 3, 17} {
					buf = strconv.AppendFloat(buf[:0], f, format, prec, 64)
					check(string(buf))
				}
			}
		}
	}
	zeros := strings.Repeat("0", 25)
	for _, tok := range []string{
		"9007199254740992", "9007199254740993", "9007199254740991", "-9007199254740993e-22",
		"9007199254740992e22", "9007199254740993e-5", "9007199254740992.5",
		"1e22", "1e23", "-1e22", "1e-22", "1e-23", "4.5e22", "123456789e22",
		"1234567890123456789", "9999999999999999999", "1234567890123456789e-10", "1.234567890123456789",
		"12345678901234567890", "12345678901234567891", "10000000000000000000", "1000000000000000000000",
		"1234567890123456789.5", "0.12345678901234567891", "1.0000000000000000000000001",
		"0." + zeros[:19] + "1", "0." + zeros[:20] + "1", "0." + zeros[:21] + "1",
		"0." + zeros[:22] + "5", "0." + zeros + "12345", "-0." + zeros + "1e30",
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-400", "0e400", "-0.000e5", "0." + zeros,
		"1e-400", "1e400", "-1e400", "1e0000000000000000000001", "1e-0000000000000000000022",
		"0." + strings.Repeat("0", 50000) + "1e50001", "1" + strings.Repeat("0", 50000) + "e-50000",
	} {
		check(tok)
	}
	// Not JSON grammar, though strconv reads some of them.
	for _, tok := range []string{"-", "1.", ".5", "1e", "1e+", "01", "+1", "Inf", "0x1p3", "1_0"} {
		s := scanner{d: []byte(tok)}
		if s.float(); !s.bad && s.i == len(tok) {
			t.Errorf("scanner accepted %q", tok)
		}
	}
	if tokens < 1_000_000 {
		t.Fatalf("only %d tokens checked", tokens)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d tokens differ from strconv", mismatches, tokens)
	}
}
