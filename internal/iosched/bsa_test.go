package iosched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
)

func TestSectorMapMergeAndQuery(t *testing.T) {
	var m SectorMap
	m.MarkBad(100, 10)
	m.MarkBad(200, 10)
	if m.Ranges() != 2 || m.BadSectors() != 20 {
		t.Fatalf("ranges=%d sectors=%d", m.Ranges(), m.BadSectors())
	}
	m.MarkBad(110, 90) // bridges the gap (adjacent left, overlapping right)
	if m.Ranges() != 1 || m.BadSectors() != 110 {
		t.Fatalf("after bridge: ranges=%d sectors=%d", m.Ranges(), m.BadSectors())
	}
	if !m.Overlaps(150, 1) || !m.Overlaps(0, 101) || m.Overlaps(0, 100) || m.Overlaps(210, 5) {
		t.Fatal("Overlaps wrong")
	}
	m.Clear(150, 10) // split
	if m.Ranges() != 2 || m.BadSectors() != 100 {
		t.Fatalf("after split: ranges=%d sectors=%d", m.Ranges(), m.BadSectors())
	}
	if m.Overlaps(150, 10) {
		t.Fatal("cleared region still bad")
	}
	m.Clear(0, 1000)
	if m.Ranges() != 0 || m.Overlaps(0, 1000) {
		t.Fatal("full clear failed")
	}
}

// TestSectorMapMatchesReference fuzzes the range structure against a
// per-sector boolean reference model.
func TestSectorMapMatchesReference(t *testing.T) {
	const space = 2048
	rng := rand.New(rand.NewSource(11))
	var m SectorMap
	ref := make([]bool, space)
	for step := 0; step < 5000; step++ {
		lba := rng.Int63n(space)
		n := rng.Int63n(64) + 1
		if lba+n > space {
			n = space - lba
		}
		if rng.Intn(3) == 0 {
			m.Clear(lba, n)
			for i := lba; i < lba+n; i++ {
				ref[i] = false
			}
		} else {
			m.MarkBad(lba, n)
			for i := lba; i < lba+n; i++ {
				ref[i] = true
			}
		}
		qlba := rng.Int63n(space)
		qn := rng.Int63n(64) + 1
		if qlba+qn > space {
			qn = space - qlba
		}
		want := false
		for i := qlba; i < qlba+qn; i++ {
			if ref[i] {
				want = true
				break
			}
		}
		if got := m.Overlaps(qlba, qn); got != want {
			t.Fatalf("step %d: Overlaps(%d,%d) = %v, want %v", step, qlba, qn, got, want)
		}
	}
	// Invariant: sorted, disjoint, non-empty ranges.
	for i := range m.starts {
		if m.ends[i] <= m.starts[i] {
			t.Fatalf("empty range %d", i)
		}
		if i > 0 && m.starts[i] <= m.ends[i-1] {
			t.Fatalf("ranges %d and %d not disjoint/sorted", i-1, i)
		}
	}
}

func TestBSADefersSuspectTraffic(t *testing.T) {
	b := NewBSA()
	b.MarkBad(500, 10)
	bad := req(0, blockdev.ClassBE, 500, 8)
	clean := req(0, blockdev.ClassBE, 1000, 8)
	b.Add(bad, 0)
	b.Add(clean, 0)
	if r, _ := b.Next(0); r != clean {
		t.Fatal("deferring BSA served a suspect request before clean traffic")
	}
	if r, _ := b.Next(0); r != bad {
		t.Fatal("suspect request lost")
	}
}

func TestBSAAntiStarvation(t *testing.T) {
	b := NewBSA()
	b.Expiry = 100 * time.Millisecond
	b.MarkBad(500, 10)
	bad := req(0, blockdev.ClassBE, 500, 8)
	bad.Submit = 0
	b.Add(bad, 0)
	clean := req(0, blockdev.ClassBE, 1000, 8)
	clean.Submit = 150 * time.Millisecond
	b.Add(clean, clean.Submit)
	// Past expiry the suspect wins even with clean traffic pending.
	if r, _ := b.Next(200 * time.Millisecond); r != bad {
		t.Fatal("expired suspect request still deferred")
	}
}

func TestBSARepairFirst(t *testing.T) {
	b := NewBSARepair()
	if b.BadRanges() != 0 {
		t.Fatal("fresh BSA knows bad ranges")
	}
	b.MarkBad(500, 10)
	bad := req(0, blockdev.ClassBE, 500, 8)
	clean := req(0, blockdev.ClassBE, 1000, 8)
	b.Add(clean, 0)
	b.Add(bad, 0)
	if r, _ := b.Next(0); r != bad {
		t.Fatal("repair-first BSA did not prioritize the suspect request")
	}
}

func TestBSALearnsAndUnlearns(t *testing.T) {
	b := NewBSA()
	r := req(0, blockdev.ClassBE, 100, 8)
	r.LSEs = []int64{103, 104}
	b.OnComplete(r, 0)
	if b.BadRanges() != 1 { // adjacent LSEs merge
		t.Fatalf("BadRanges = %d, want 1", b.BadRanges())
	}
	next := req(0, blockdev.ClassBE, 100, 8)
	b.Add(next, 0)
	if len(b.suspect) != 1 {
		t.Fatal("request over learned region not classified suspect")
	}
	// Terminal error with no sector detail: whole extent learned.
	fail := req(0, blockdev.ClassBE, 9000, 16)
	fail.Err = &disk.MediumError{Op: disk.OpRead}
	b.OnComplete(fail, 0)
	if !b.bad.Overlaps(9000, 16) {
		t.Fatal("failed extent not learned")
	}
	// Successful write over the region unlearns it.
	w := &blockdev.Request{Op: disk.OpWrite, LBA: 9000, Sectors: 16}
	b.OnComplete(w, 0)
	if b.bad.Overlaps(9000, 16) {
		t.Fatal("repaired extent still marked bad")
	}
}

// TestBSARequestConservation is the ISSUE's conservation property: under
// a randomized bad-sector map and a randomized workload driven through
// the real queue with retries, every submitted request completes exactly
// once, for both BSA variants and the reference elevators.
func TestBSARequestConservation(t *testing.T) {
	scheds := map[string]func() blockdev.Scheduler{
		"bsa":        func() blockdev.Scheduler { return NewBSA() },
		"bsa-repair": func() blockdev.Scheduler { return NewBSARepair() },
		"deadline":   func() blockdev.Scheduler { return NewDeadline() },
		"noop":       func() blockdev.Scheduler { return NewNOOP() },
	}
	for name, mk := range scheds {
		for seed := int64(1); seed <= 3; seed++ {
			s := sim.New()
			m := disk.DemoSmall()
			d := disk.MustNew(m)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				d.InjectLSE(rng.Int63n(d.Sectors()))
			}
			sched := mk()
			if b, ok := sched.(*BSA); ok {
				// Pre-seed part of the map so classification happens on
				// arrival, not only after learning.
				for i := 0; i < 50; i++ {
					b.MarkBad(rng.Int63n(d.Sectors()), rng.Int63n(32)+1)
				}
			}
			q := blockdev.NewQueue(s, d, sched)
			q.SetRetryPolicy(blockdev.RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond})

			const submitted = 500
			completed := 0
			for i := 0; i < submitted; i++ {
				r := q.GetRequest()
				r.Op = disk.OpRead
				if rng.Intn(4) == 0 {
					r.Op = disk.OpWrite
				}
				r.LBA = rng.Int63n(d.Sectors() - 64)
				r.Sectors = rng.Int63n(32) + 1
				r.Class = blockdev.ClassBE
				r.Origin = blockdev.Foreground
				r.OnComplete = func(*blockdev.Request) { completed++ }
				if err := s.RunUntil(time.Duration(i) * 100 * time.Microsecond); err != nil {
					t.Fatal(err)
				}
				q.Submit(r)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// Absorbed merges complete through their carrier, so every
			// submission completes exactly once.
			if completed != submitted {
				t.Fatalf("%s seed %d: %d completions for %d submissions", name, seed, completed, submitted)
			}
			if q.Pending() != 0 || !q.Quiesced() {
				t.Fatalf("%s seed %d: queue not drained", name, seed)
			}
		}
	}
}
