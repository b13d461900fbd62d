package wire

import (
	"math"
	"math/big"
	"math/bits"
)

// appendFloat appends the finite float64 f as encoding/json writes it:
// the shortest decimal that parses back to f, closest to f (ties to an
// even last digit), which is what strconv's shortest mode returns, in
// 'f' form for 1e-6 ≤ |f| < 1e21 and in 'e' form otherwise, with the
// exponent unpadded (e-7, e+21). The digits come from Schubfach (R.
// Giulietti, "The Schubfach way to render doubles", 2020): three
// 128-bit products against one table of powers of ten bracket f's
// rounding interval in units of 10^k, and the shortest decimal inside
// it is read off those brackets. Tests hold it to strconv on random bit
// patterns, every power of two and its neighbours, the subnormals and
// the integers (float_test.go).
func appendFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	var buf [20]byte
	t := u & (1<<52 - 1)
	var c uint64
	var e int
	switch bq := int(u>>52) & 0x7ff; {
	case bq != 0:
		c = 1<<52 | t
		// An integer below 2^53 is its own shortest decimal.
		if mq := 1075 - bq; 0 < mq && mq < 53 && c&(1<<mq-1) == 0 {
			return append(b, decimal(&buf, c>>mq)...)
		}
		c, e = shortest(bq-1075, c)
	case t == 0:
		return append(b, '0')
	default:
		c, e = shortest(-1074, t)
	}
	// c·10^e, the trailing zeros of c's digits moved into e.
	d := decimal(&buf, c)
	n := len(d)
	for d[n-1] == '0' {
		n, e = n-1, e+1
	}
	d = d[:n]
	if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
		b = append(b, d[0])
		if n > 1 {
			b = append(append(b, '.'), d[1:]...)
		}
		x, sign := e+n-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		return append(append(b, 'e', sign), decimal(&buf, uint64(x))...)
	}
	switch p := n + e; {
	case e >= 0:
		b = append(b, d...)
		for ; e > 0; e-- {
			b = append(b, '0')
		}
	case p > 0:
		b = append(append(append(b, d[:p]...), '.'), d[p:]...)
	default:
		b = append(b, '0', '.')
		for ; p < 0; p++ {
			b = append(b, '0')
		}
		b = append(b, d...)
	}
	return b
}

// shortest returns the decimal c'·10^e' that the float c·2^q renders
// to: Schubfach's decision procedure (figure 7 of Giulietti's paper,
// with the products of its figure 9). c's rounding interval is closed when c is
// even, as round-half-even reads it back.
func shortest(q int, c uint64) (uint64, int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: the gap below is half the gap above.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10g[k-pow10kMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// One digit shorter: at most one of the multiples of ten around
		// s lies in the interval.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both lie in the interval: the closer one, ties to even.
	if cmp := int64(vb) - int64((s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns ⌊cp·g/2^127⌋, rounded to odd when the product has bits
// below that (its last bit then records them), for g = g1·2^63 + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | ((z&(1<<63-1))+(1<<63-1))>>63
}

// flog10pow2 returns ⌊e·log10 2⌋, flog10ThreeQuartersPow2 returns
// ⌊log10(¾·2^e)⌋ and flog2pow10 returns ⌊e·log2 10⌋, exactly for every
// exponent a float64 reaches (fixed-point logarithms from Giulietti's
// paper).
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// pow10g holds, for k from pow10kMin to pow10kMax, the 126-bit
// g(k) = ⌊10^−k · 2^(125 − ⌊−k·log2 10⌋)⌋ + 1 as its bits from 63 up and
// its low 63 bits. It is computed once, exactly, at package init.
const pow10kMin, pow10kMax = -324, 292

var pow10g = func() (g [pow10kMax - pow10kMin + 1][2]uint64) {
	ten, one := big.NewInt(10), big.NewInt(1)
	x, hi := new(big.Int), new(big.Int)
	set := func(k int) {
		x.Add(x, one)
		g[k-pow10kMin] = [2]uint64{hi.Rsh(x, 63).Uint64(), x.Uint64() & (1<<63 - 1)}
	}
	// k ≤ 0: 10^−k is the integer p, grown ten times a step.
	p := big.NewInt(1)
	for k := 0; k >= pow10kMin; k-- {
		if sh := 125 - flog2pow10(-k); sh >= 0 {
			x.Lsh(p, uint(sh))
		} else {
			x.Rsh(p, uint(-sh))
		}
		set(k)
		p.Mul(p, ten)
	}
	// k > 0: r = ⌊2^m / 10^k⌋, a tenth a step (the floor of a floor of
	// an integer quotient is the floor of the whole quotient), then
	// shifted to the entry's 2^(125 − ⌊−k·log2 10⌋).
	m := 125 - flog2pow10(-pow10kMax)
	r, rem := new(big.Int).Lsh(one, uint(m)), new(big.Int)
	for k := 1; k <= pow10kMax; k++ {
		r.QuoRem(r, ten, rem)
		x.Rsh(r, uint(m-125+flog2pow10(-k)))
		set(k)
	}
	return g
}()

// digitPairs lists "00" to "99" for decimal.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// decimal writes v's decimal digits at the end of buf and returns them.
// It takes eight digits a step, while more than eight are left: one
// 64-bit division by 10^8, then 32-bit arithmetic on the remainder's two
// four-digit halves, which do not wait on each other, written as digit
// pairs. The last eight or fewer digits fit in 32 bits too.
func decimal(buf *[20]byte, v uint64) []byte {
	i := len(buf)
	for v >= 1e8 {
		q := v / 1e8
		r := uint32(v - q*1e8)
		v = q
		i -= 8
		quad((*[4]byte)(buf[i:]), r/1e4)
		quad((*[4]byte)(buf[i+4:]), r%1e4)
	}
	u := uint32(v)
	if u >= 1e4 {
		i -= 4
		quad((*[4]byte)(buf[i:]), u%1e4)
		u /= 1e4
	}
	if u >= 100 {
		i -= 2
		pair((*[2]byte)(buf[i:]), u%100)
		u /= 100
	}
	if u >= 10 {
		i -= 2
		pair((*[2]byte)(buf[i:]), u)
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	return buf[i:]
}

// quad writes the four digits of v < 10^4, leading zeros included.
func quad(b *[4]byte, v uint32) {
	pair((*[2]byte)(b[:2]), v/100)
	pair((*[2]byte)(b[2:]), v%100)
}

// pair writes the two digits of v < 100, a leading zero included.
func pair(b *[2]byte, v uint32) {
	b[0], b[1] = digitPairs[2*v], digitPairs[2*v+1]
}
