package fault

import "math/rand"

// Positional draws from a freshly seeded math/rand source.
//
// rand.NewSource(seed) is an additive lagged-Fibonacci generator over a
// 607-word table. Seeding fills word i from three consecutive states of
// a Park–Miller LCG (x ← 48271·x mod 2³¹−1) started at the seed, xor'd
// with a fixed table math/rand calls rngCooked. Draw n (1-based) then
// adds two words and stores the sum over the first: vec[334−n] +
// vec[607−n]. Up to draw 273 neither word has been overwritten yet, so
// those draws are sums of two freshly seeded words, and each of those
// words is a pure function of the seed: its LCG states sit at fixed
// steps from the seed, x·48271^k mod 2³¹−1, with the powers tabulated
// once here. That makes any of a stream's first 273 draws a dozen
// multiplies instead of seeding 607 words and replaying the draws
// before it.

const (
	rngLen = 607             // math/rand's table length
	rngTap = 273             // its second lag
	pmMod  = 1<<31 - 1       // the Park–Miller modulus
	pmMul  = 48271           // and multiplier
	pmZero = 89482311        // the state math/rand seeds in place of 0
	rngFed = rngLen - rngTap // draw n (1-based) feeds word rngFed−n
)

// freshDraws is how many draws of a fresh source freshDraw computes: the
// draws that read only words the seeding wrote.
const freshDraws = rngTap

var (
	// pmPow[i] holds 48271^k mod 2³¹−1 for the three LCG steps k that
	// seeding spends on word i: after 20 warm-up steps, 21+3i..23+3i.
	pmPow [rngLen][3]uint32
	// rngCooked is math/rand's unexported table, recovered by init.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 20; k++ {
		p = p * pmMul % pmMod
	}
	for i := range pmPow {
		for j := range pmPow[i] {
			p = p * pmMul % pmMod
			pmPow[i][j] = uint32(p)
		}
	}
	rngCooked = recoverCooked(1)
	if recoverCooked(-2) != rngCooked {
		panic("fault: math/rand's source no longer seeds as a Park–Miller-filled lagged-Fibonacci table; freshDraw cannot reproduce its draws")
	}
}

// recoverCooked inverts the first 607 draws of rand.NewSource(seed) into
// its freshly seeded table, then strips the Park–Miller words from it.
// Draws 274..334 each add a fresh word (60 down to 0) to the output of
// draw n−273, which overwrote its tap; draws 335..607 do the same for
// words 606 down to 334; with those known, draws 1..273 give words 333
// down to 61.
func recoverCooked(seed int64) [rngLen]int64 {
	//scrublint:allow detorder reads one fixed-seed stream at init to recover math/rand's seeding table; no simulation state draws from it
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64 // out[n-1] is draw n
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		feed := rngFed - n
		if feed < 0 {
			feed += rngLen
		}
		vec[feed] = out[n-1] - out[n-1-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		vec[rngFed-n] = out[n-1] - vec[rngLen-n]
	}
	x := pmState(seed)
	for i := range vec {
		vec[i] ^= pmWord(x, i)
	}
	return vec
}

// pmState is the Park–Miller state math/rand's Seed starts from.
func pmState(seed int64) uint64 {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = pmZero
	}
	return uint64(seed)
}

// pmWord is table word i's Park–Miller part for a source seeded from
// state x, before the xor with rngCooked.
func pmWord(x uint64, i int) int64 {
	p := &pmPow[i]
	return int64(x*uint64(p[0])%pmMod)<<40 ^
		int64(x*uint64(p[1])%pmMod)<<20 ^
		int64(x*uint64(p[2])%pmMod)
}

// freshDraw returns the Uint64 of draw number n (0-based, n <
// freshDraws) of rand.NewSource(seed).
func freshDraw(seed int64, n uint64) uint64 {
	x := pmState(seed)
	a, b := rngFed-1-int(n), rngLen-1-int(n)
	return uint64((pmWord(x, a) ^ rngCooked[a]) + (pmWord(x, b) ^ rngCooked[b]))
}
