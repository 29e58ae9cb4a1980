package obs_test

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// searchBucket is the binary search Observe ran before its bucket
// table, kept as the reference: the lowest i with d <= bounds[i], or
// len(bounds) for the overflow bucket. bounds must ascend strictly; d
// clamps to zero as Observe clamps it.
func searchBucket(bounds []time.Duration, d time.Duration) int {
	if d < 0 {
		d = 0
	}
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// probes returns the observations that test every edge of bounds: each
// bound and its neighbours, every power of two and its neighbours, and
// the extremes of time.Duration.
func probes(bounds []time.Duration) []time.Duration {
	ds := []time.Duration{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for k := 1; k < 63; k++ {
		p := time.Duration(1) << k
		ds = append(ds, p-1, p, p+1)
	}
	for _, b := range bounds {
		ds = append(ds, b-1, b, b+1) // MaxInt64+1 wraps negative and clamps to 0
	}
	return ds
}

// checkObserve observes each d on a histogram over bounds and fails
// unless the bucket Observe counted is the one the binary search names.
func checkObserve(t testing.TB, bounds, ds []time.Duration) {
	t.Helper()
	h := obs.NewHistogram(bounds)
	ref := slices.Clone(bounds)
	if len(ref) == 0 {
		ref = obs.DefaultLatencyBuckets()
	}
	slices.Sort(ref)
	ref = slices.Compact(ref)
	counts := obs.Counts(h)
	for _, d := range ds {
		want := searchBucket(ref, d)
		before := counts[want]
		h.Observe(d)
		if counts[want] != before+1 {
			t.Fatalf("%d bounds: Observe(%d) counted outside bucket %d of %d", len(ref), int64(d), want, len(counts))
		}
	}
}

// randomBounds draws n bounds spread over every magnitude, about one in
// eight negative, duplicates left in for NewHistogram to drop.
func randomBounds(r *rand.Rand, n int) []time.Duration {
	b := make([]time.Duration, n)
	for i := range b {
		b[i] = time.Duration(r.Int63() >> r.Intn(64))
		if r.Intn(8) == 0 {
			b[i] = -b[i]
		}
	}
	return b
}

func TestObserveMatchesBinarySearch(t *testing.T) {
	dense := make([]time.Duration, 300) // many bounds per octave, more than 255 buckets
	for i := range dense {
		dense[i] = time.Duration(i)
	}
	sets := []struct {
		name   string
		bounds []time.Duration
	}{
		{"default", nil},
		{"ttd", fault.TTDBuckets()},
		{"negative", []time.Duration{-time.Second, -1, 0, 1, 3, time.Millisecond}},
		{"all-negative", []time.Duration{-5, -3}},
		{"duplicates", []time.Duration{2 * time.Millisecond, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}},
		{"top", []time.Duration{1 << 62, math.MaxInt64}},
		{"zero-and-max", []time.Duration{0, math.MaxInt64}},
		{"dense", dense},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		sets = append(sets, struct {
			name   string
			bounds []time.Duration
		}{"random", randomBounds(r, 1+r.Intn(400))})
	}
	for _, s := range sets {
		ds := probes(s.bounds)
		for i := 0; i < 200; i++ {
			ds = append(ds, time.Duration(r.Int63()>>r.Intn(64)))
		}
		t.Run(s.name, func(t *testing.T) { checkObserve(t, s.bounds, ds) })
	}
}

// TestOneBoundPerOctave pins what makes Observe one table load and at
// most two compares on the default and detection-time bounds: no two
// bounds share a bit length.
func TestOneBoundPerOctave(t *testing.T) {
	for name, b := range map[string][]time.Duration{
		"default": obs.DefaultLatencyBuckets(),
		"ttd":     fault.TTDBuckets(),
	} {
		for i := 1; i < len(b); i++ {
			if bits.Len64(uint64(b[i])) == bits.Len64(uint64(b[i-1])) {
				t.Errorf("%s: bounds %v and %v share an octave", name, b[i-1], b[i])
			}
		}
	}
}

// encodeBounds is the inverse of decodeBounds at shift 0.
func encodeBounds(b []time.Duration) []byte {
	raw := make([]byte, 0, 9*len(b))
	for _, d := range b {
		raw = append(raw, 0)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(d))
	}
	return raw
}

// decodeBounds reads one bound from each 9 bytes: a shift, then an
// int64 shifted right by it, so the fuzzer reaches every magnitude.
func decodeBounds(raw []byte) []time.Duration {
	var b []time.Duration
	for ; len(raw) >= 9; raw = raw[9:] {
		b = append(b, time.Duration(int64(binary.LittleEndian.Uint64(raw[1:9]))>>(raw[0]%64)))
	}
	return b
}

func FuzzObserveMatchesBinarySearch(f *testing.F) {
	f.Add([]byte{}, int64(1500))
	f.Add(encodeBounds(obs.DefaultLatencyBuckets()), int64(3*time.Millisecond))
	f.Add(encodeBounds(fault.TTDBuckets()), int64(90*time.Minute))
	f.Add(encodeBounds([]time.Duration{-7, -1, 0, 0, 1, 2, 2, 1 << 40, math.MaxInt64}), int64(-3))
	f.Add(encodeBounds(randomBounds(rand.New(rand.NewSource(2)), 300)), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, raw []byte, d int64) {
		bounds := decodeBounds(raw)
		checkObserve(t, bounds, append(probes(bounds), time.Duration(d)))
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	for _, c := range []struct {
		name   string
		bounds []time.Duration
		lo, hi time.Duration // observations spread log-uniformly over [lo, hi]
	}{
		{"default", obs.DefaultLatencyBuckets(), 100 * time.Nanosecond, 100 * time.Second},
		{"ttd", fault.TTDBuckets(), 100 * time.Millisecond, 100000 * time.Second},
	} {
		r := rand.New(rand.NewSource(1))
		ds := make([]time.Duration, 1024)
		span := math.Log(float64(c.hi) / float64(c.lo))
		for i := range ds {
			ds[i] = time.Duration(float64(c.lo) * math.Exp(r.Float64()*span))
		}
		b.Run(c.name, func(b *testing.B) {
			h := obs.NewHistogram(c.bounds)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(ds[i&1023])
			}
		})
	}
}
