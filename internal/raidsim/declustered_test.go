package raidsim

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/raid"
)

func newDeclustered(t *testing.T, disks, width int) *Group {
	t.Helper()
	g, err := New(Config{Disks: disks, Model: smallModel(), Layout: LayoutDeclustered, StripeWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeclusteredDispatchZeroAlloc pins the address-mapping hot path —
// locate, parityMember, rowHasMember — at zero allocations: every
// foreground, scrub and rebuild request crosses it.
func TestDeclusteredDispatchZeroAlloc(t *testing.T) {
	g := newDeclustered(t, 6, 4)
	span := g.DataSectors()
	var sink int64
	if avg := testing.AllocsPerRun(2000, func() {
		for lba := int64(0); lba < span; lba += span / 64 {
			row, member, mLBA := g.locate(lba)
			sink += mLBA + int64(member) + int64(g.parityMember(row))
			if g.rowHasMember(row, member) {
				sink++
			}
		}
	}); avg != 0 {
		t.Fatalf("declustered dispatch allocates %.2f per sweep, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("dispatch sweep computed nothing")
	}
}

func TestDeclusteredValidation(t *testing.T) {
	if _, err := New(Config{Disks: 6, Model: smallModel(), Layout: LayoutDeclustered}); err == nil {
		t.Fatal("declustered without StripeWidth accepted")
	}
	if _, err := New(Config{Disks: 6, Model: smallModel(), Layout: LayoutDeclustered, StripeWidth: 6}); err == nil {
		t.Fatal("StripeWidth == Disks accepted for declustered")
	}
	if _, err := New(Config{Disks: 6, Model: smallModel(), StripeWidth: 4}); err == nil {
		t.Fatal("clustered with StripeWidth != Disks accepted")
	}
	if _, err := New(Config{Disks: 6, Model: smallModel(), StripeWidth: 6}); err != nil {
		t.Fatal("clustered with StripeWidth == Disks rejected")
	}
}

// TestDeclusteredMappingExactlyOnce is the ISSUE's layout invariant:
// walking the whole logical space, every stripe unit lands on exactly
// one (member, offset) slot, each row uses k distinct members from its
// window, and parity is a window member distinct from all data units.
func TestDeclusteredMappingExactlyOnce(t *testing.T) {
	g := newDeclustered(t, 6, 4)
	u := g.cfg.StripeSectors
	k := int64(g.width)
	n := g.cfg.Disks

	type slot struct {
		member int
		mLBA   int64
	}
	seen := make(map[slot]int64) // slot -> logical lba
	rowMembers := make(map[int64]map[int]bool)

	for lba := int64(0); lba < g.DataSectors(); lba += u {
		row, member, mLBA := g.locate(lba)
		if member < 0 || member >= n {
			t.Fatalf("lba %d: member %d out of range", lba, member)
		}
		if !g.rowHasMember(row, member) {
			t.Fatalf("lba %d: member %d outside row %d's window", lba, member, row)
		}
		if mLBA != row*u {
			t.Fatalf("lba %d: member LBA %d not row-aligned (row %d)", lba, mLBA, row)
		}
		s := slot{member, mLBA}
		if prev, dup := seen[s]; dup {
			t.Fatalf("slot (%d,%d) mapped twice: lbas %d and %d", member, mLBA, prev, lba)
		}
		seen[s] = lba
		if rowMembers[row] == nil {
			rowMembers[row] = make(map[int]bool)
		}
		if rowMembers[row][member] {
			t.Fatalf("row %d reuses member %d", row, member)
		}
		rowMembers[row][member] = true
	}
	for row, used := range rowMembers {
		if int64(len(used)) != k-1 {
			t.Fatalf("row %d uses %d data members, want %d", row, len(used), k-1)
		}
		p := g.parityMember(row)
		if !g.rowHasMember(row, p) {
			t.Fatalf("row %d: parity member %d outside window", row, p)
		}
		if used[p] {
			t.Fatalf("row %d: parity member %d also holds data", row, p)
		}
	}
}

// TestDeclusteredRebuildFanOut is the ISSUE's fan-out bound: every
// rebuilt row reads exactly k-1 survivors, only the rows holding the
// failed member are rebuilt, and the read load spreads over the whole
// array rather than hammering every survivor end to end.
func TestDeclusteredRebuildFanOut(t *testing.T) {
	g := newDeclustered(t, 6, 4)
	const failed = 2
	if err := g.FailDisk(failed); err != nil {
		t.Fatal(err)
	}

	// Expected rebuilt rows: those whose window holds the failed member.
	var wantRows int64
	for r := int64(0); r < g.rowsTotal; r++ {
		if g.rowHasMember(r, failed) {
			wantRows++
		}
	}
	if wantRows == g.rowsTotal {
		t.Fatal("every row holds the failed member; declustering proves nothing")
	}

	var done time.Duration
	if err := g.StartRebuild(0, func(now time.Duration) { done = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if done == 0 {
		t.Fatal("rebuild never completed")
	}
	if st.RebuildRows != wantRows {
		t.Fatalf("RebuildRows = %d, want %d", st.RebuildRows, wantRows)
	}
	if st.UnrecoverableStripes != 0 {
		t.Fatalf("clean rebuild lost %d stripes", st.UnrecoverableStripes)
	}

	// Fan-out bound: total rebuild reads = (k-1) per rebuilt row, every
	// survivor shares the load, and no survivor reads every rebuilt row
	// (a clustered layout would make all of them do exactly that). The
	// rotated window is deliberately not perfectly even — co-membership
	// falls off with circular distance from the failed member — so the
	// assertion is participation, not uniformity.
	var total int64
	var min, max int64 = 1 << 62, 0
	for i := 0; i < g.cfg.Disks; i++ {
		if i == failed {
			continue
		}
		reads := g.Member(i).Stats().Submitted[blockdev.Scrub-1]
		total += reads
		if reads < min {
			min = reads
		}
		if reads > max {
			max = reads
		}
	}
	if want := wantRows * int64(g.width-1); total != want {
		t.Fatalf("rebuild reads = %d, want %d (k-1 per row)", total, want)
	}
	if min == 0 {
		t.Fatal("a survivor was left out of the rebuild fan-out")
	}
	if max >= wantRows {
		t.Fatalf("a survivor read %d of %d rebuilt rows; load not declustered", max, wantRows)
	}
}

// TestDeclusteredLossAgreesWithAnalyze mirrors the clustered
// loss-agreement gate for the declustered layout: raid.Analyze with the
// matching StripeWidth must predict what the simulated rebuild observes.
func TestDeclusteredLossAgreesWithAnalyze(t *testing.T) {
	runRebuild := func(plant bool) (lost bool, latent float64) {
		g := newDeclustered(t, 6, 4)
		const failed = 0
		planted := 0
		if plant {
			// One LSE at the start of every member-local row that the
			// failed member's rebuild will read, on every survivor.
			for r := int64(0); r < g.rowsTotal && planted < 24; r += 7 {
				if !g.rowHasMember(r, failed) {
					continue
				}
				for i := 0; i < g.cfg.Disks; i++ {
					if i != failed && g.rowHasMember(r, i) {
						g.Member(i).Disk().InjectLSE(r * g.cfg.StripeSectors)
					}
				}
				planted++
			}
		}
		if err := g.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		if err := g.StartRebuild(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return g.Stats().UnrecoverableStripes > 0, float64(planted)
	}

	analyze := func(latentPerDisk float64) raid.Report {
		rep, err := raid.Analyze(raid.Array{
			Disks:       6,
			StripeWidth: 4,
			DiskMTTF:    1000 * 24 * time.Hour,
			RebuildTime: 10 * time.Minute,
			LSERate:     latentPerDisk,
			ScrubMLET:   time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	lost, latent := runRebuild(true)
	if pred := analyze(latent); pred.PLossLSE < 0.99 {
		t.Fatalf("analytic P(loss) = %v with %v latent, expected near-certain", pred.PLossLSE, latent)
	}
	if !lost {
		t.Fatal("simulated declustered rebuild lost nothing despite near-certain prediction")
	}

	lost, latent = runRebuild(false)
	if pred := analyze(latent); pred.PLossLSE != 0 {
		t.Fatalf("analytic P(loss) = %v with zero latent errors", pred.PLossLSE)
	}
	if lost {
		t.Fatal("clean declustered rebuild lost stripes")
	}
}

// TestScrubCompetesWithRebuild runs the group scrub concurrently with a
// back-to-back rebuild on both layouts: both walks must complete, the
// scrub must surface the planted errors on live units, and the contended
// rebuild must take at least as long as an uncontended one.
func TestScrubCompetesWithRebuild(t *testing.T) {
	for _, layout := range []Layout{LayoutClustered, LayoutDeclustered} {
		cfg := Config{Disks: 6, Model: smallModel(), Layout: layout}
		if layout == LayoutDeclustered {
			cfg.StripeWidth = 4
		}
		var rowsTotal int64
		runOnce := func(scrub bool) (Stats, time.Duration) {
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rowsTotal = g.rowsTotal
			g.Member(1).Disk().InjectLSE(5 * g.cfg.StripeSectors)
			if err := g.FailDisk(0); err != nil {
				t.Fatal(err)
			}
			var rebuildDone time.Duration
			if err := g.StartRebuild(0, func(now time.Duration) { rebuildDone = now }); err != nil {
				t.Fatal(err)
			}
			if scrub {
				if err := g.StartScrub(nil); err != nil {
					t.Fatal(err)
				}
				if err := g.StartScrub(nil); err == nil {
					t.Fatal("double StartScrub accepted")
				}
			}
			if err := g.Sim().RunUntil(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
			return g.Stats(), rebuildDone
		}

		alone, aloneDone := runOnce(false)
		both, bothDone := runOnce(true)
		if alone.RebuildRows == 0 || aloneDone == 0 {
			t.Fatalf("%v: rebuild alone did not finish", layout)
		}
		if both.ScrubbedRows != rowsTotal {
			t.Fatalf("%v: scrub covered %d rows, want %d", layout, both.ScrubbedRows, rowsTotal)
		}
		if both.ScrubFinished == 0 || bothDone == 0 {
			t.Fatalf("%v: concurrent scrub+rebuild did not both finish", layout)
		}
		if both.ScrubLSEsFound == 0 {
			t.Fatalf("%v: scrub missed the planted error", layout)
		}
		if bothDone < aloneDone {
			t.Fatalf("%v: contended rebuild (%v) finished before uncontended (%v)", layout, bothDone, aloneDone)
		}
	}
}

// TestWaitingRebuildResumesAfterIdle drives a Waiting-paced rebuild
// through its hold point: a foreground read holds the walk, group
// idleness re-arms the one-hour timer, and the timer resumes the walk,
// which then finishes no earlier than the threshold.
func TestWaitingRebuildResumesAfterIdle(t *testing.T) {
	cfg := Config{Disks: 6, Model: smallModel(), Layout: LayoutDeclustered, StripeWidth: 4}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Member(3).Disk().InjectLSE(9 * cfg.StripeSectors)
	if err := g.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := g.StartRebuild(time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Read(0, 64, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !g.Rebuilding() {
		t.Fatal("rebuild not in progress at the hold point")
	}
	if err := g.Sim().RunUntil(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if done := g.Stats().RebuildFinished; done < time.Hour {
		t.Fatalf("rebuild finished at %v, want after the one-hour idle threshold", done)
	}
}
