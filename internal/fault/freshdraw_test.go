package fault

import (
	"math"
	"math/rand"
	"testing"
)

// int63At says whether draw i of a differential stream is an Int63 or
// a Uint64 call, so every test mixes the two the same way.
func int63At(i uint64) bool { return i%3 == 1 }

// drawAt makes draw i on src with the kind int63At picks, as a uint64.
func drawAt(src rand.Source64, i uint64) uint64 {
	if int63At(i) {
		return uint64(src.Int63())
	}
	return src.Uint64()
}

// differentialSeeds are the seeds of TestCountingSourceMatchesStandard:
// the edges of math/rand's seed reduction (0, the seed it maps 0 to,
// multiples of 2³¹−1 and their neighbours, negatives, the int64
// extremes) and 10 000 random seeds of every magnitude and sign.
func differentialSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, pmZero, -pmZero, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1000, math.MaxInt64 / pmMod} {
		seeds = append(seeds, k*pmMod, -k*pmMod, k*pmMod-1, k*pmMod+1, -k*pmMod+1)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s := r.Int63() >> r.Intn(64)
		if r.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestCountingSourceMatchesStandard holds the counting source to
// rand.NewSource: straight through its first 1003 draws, across the
// switch from computed draws to a seeded generator at draw 273, and
// after a seek to draw 0, 272, 273, 274 or 1000.
func TestCountingSourceMatchesStandard(t *testing.T) {
	want := make([]uint64, 1003)
	for _, seed := range differentialSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		for i := range want {
			want[i] = drawAt(ref, uint64(i))
		}
		cs := newCountingSource(seed)
		for i := range want {
			if got := drawAt(cs, uint64(i)); got != want[i] {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, got, want[i])
			}
		}
		for _, pos := range []uint64{0, 272, 273, 274, 1000} {
			cs.seek(seed, pos)
			for i := pos; i < pos+3; i++ {
				if got := drawAt(cs, i); got != want[i] {
					t.Fatalf("seed %d: after seek to %d, draw %d = %#x, want %#x", seed, pos, i, got, want[i])
				}
			}
		}
	}
}

// FuzzCountingSourceMatchesStandard drives a counting source through
// draws, seeks and reseeds decoded from ops, holding every draw to a
// rand.NewSource stream of the same seed at the same position. Each op
// is a byte: 0–1 an Int63 or Uint64 draw, 2 a seek to a position read
// from the next two bytes (below 1100, so across the 273 switch), 3 a
// Seed to the seed plus the next byte.
func FuzzCountingSourceMatchesStandard(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 1})
	f.Add(int64(0), []byte{2, 0x10, 0x01, 0, 1, 2, 0x11, 0x01, 1})
	f.Add(int64(-pmMod), []byte{2, 0xe8, 0x03, 1, 3, 7, 0, 2, 0x0f, 0x01, 0, 0, 0})
	f.Add(int64(math.MinInt64), []byte{3, 0, 2, 0xff, 0xff, 1, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cs := newCountingSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		pos := uint64(0)
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 4 {
			case 0, 1:
				var got, want uint64
				if ops[i]%4 == 0 {
					got, want = uint64(cs.Int63()), uint64(ref.Int63())
				} else {
					got, want = cs.Uint64(), ref.Uint64()
				}
				if got != want {
					t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, pos, got, want)
				}
				pos++
			case 2:
				if i+2 >= len(ops) {
					return
				}
				pos = (uint64(ops[i+1]) | uint64(ops[i+2])<<8) % 1100
				i += 2
				cs.seek(seed, pos)
				ref.Seed(seed)
				for j := uint64(0); j < pos; j++ {
					ref.Uint64()
				}
			case 3:
				if i+1 >= len(ops) {
					return
				}
				seed += int64(ops[i+1])
				i++
				cs.Seed(seed)
				ref.Seed(seed)
				pos = 0
			}
		}
	})
}
