package fault

import "testing"

// TestCountingSourcePosition is the white-box proof behind Pos/SetPos:
// the wrapper counts every generator step (Int63 and Uint64 alike),
// Seed rewinds the count with the stream, and seek(seed, n) lands on the
// identical generator state — on a fresh source or on one that has
// drawn from another seed — the property SetPos relies on to restore an
// RNG position from (seed, draws). The generator is only seeded at the
// first draw after a seek.
func TestCountingSourcePosition(t *testing.T) {
	cs := newCountingSource(1)
	want := make([]uint64, 6)
	for i := range want {
		want[i] = cs.Uint64()
	}
	if cs.draws != 6 {
		t.Fatalf("draws = %d after 6 Uint64 calls, want 6", cs.draws)
	}

	cs.Seed(1)
	if cs.draws != 0 {
		t.Fatalf("Seed did not reset draws: %d", cs.draws)
	}
	for i := 0; i < 5; i++ {
		if got := cs.Uint64(); got != want[i] {
			t.Fatalf("replay after Seed diverged at draw %d: %d != %d", i, got, want[i])
		}
	}

	skipped := newCountingSource(1)
	skipped.seek(1, 5)
	if skipped.draws != 5 {
		t.Fatalf("seek(1, 5) left draws = %d", skipped.draws)
	}
	if skipped.src != nil {
		t.Fatal("seek seeded the generator before any draw")
	}
	if got := skipped.Uint64(); got != want[5] {
		t.Fatalf("seek(1, 5) then Uint64 = %d, want %d (the 6th draw)", got, want[5])
	}

	// A source that drew from seed 9 and is then sought to (1, 2) must
	// continue seed 1's stream at its third draw.
	reused := newCountingSource(9)
	reused.Uint64()
	reused.seek(1, 2)
	if got := reused.Uint64(); got != want[2] {
		t.Fatalf("reseek to (1, 2) then Uint64 = %d, want %d (the 3rd draw)", got, want[2])
	}

	if cs2 := newCountingSource(3); func() bool { cs2.Int63(); return cs2.draws != 1 }() {
		t.Fatal("Int63 did not count as one draw")
	}
}
