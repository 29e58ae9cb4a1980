package raidsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
)

// smallModel keeps member disks tiny so full rebuilds finish in simulated
// seconds.
func smallModel() disk.Model {
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	return m
}

func newGroup(t *testing.T, disks int) *Group {
	t.Helper()
	g, err := New(Config{Disks: disks, Model: smallModel()})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Disks: 2, Model: smallModel()}); err == nil {
		t.Fatal("2-disk RAID-5 accepted")
	}
	bad := smallModel()
	bad.RPM = 0
	if _, err := New(Config{Disks: 4, Model: bad}); err == nil {
		t.Fatal("invalid model accepted")
	}
	g := newGroup(t, 4)
	// 4 disks, 3 data units per row.
	want := g.rowsTotal * g.cfg.StripeSectors * 3
	if g.DataSectors() != want {
		t.Fatalf("DataSectors = %d, want %d", g.DataSectors(), want)
	}
}

func TestParityRotationAndMapping(t *testing.T) {
	g := newGroup(t, 4)
	u := g.cfg.StripeSectors
	// Row 0: parity on member 0, data units on 1, 2, 3.
	row, member, mLBA := g.locate(0)
	if row != 0 || member != 1 || mLBA != 0 {
		t.Fatalf("lba 0 -> (%d, %d, %d)", row, member, mLBA)
	}
	if g.parityMember(0) != 0 || g.parityMember(1) != 1 || g.parityMember(4) != 0 {
		t.Fatal("parity rotation wrong")
	}
	// Second data unit of row 0 lands on member 2.
	_, member, _ = g.locate(u)
	if member != 2 {
		t.Fatalf("second unit on member %d, want 2", member)
	}
	// Row 1: parity on member 1; first data unit on member 0.
	row, member, mLBA = g.locate(3 * u)
	if row != 1 || member != 0 || mLBA != u {
		t.Fatalf("row1 first unit -> (%d, %d, %d)", row, member, mLBA)
	}
	// The parity member never holds a data unit of its own row.
	for lba := int64(0); lba < 100*u; lba += u / 2 {
		row, member, _ := g.locate(lba)
		if member == g.parityMember(row) {
			t.Fatalf("data unit at lba %d mapped onto parity member", lba)
		}
	}
}

func TestReadCompletesAndStripes(t *testing.T) {
	g := newGroup(t, 4)
	var doneAt time.Duration
	// A read spanning three units touches three members.
	if err := g.Read(0, 3*g.cfg.StripeSectors, func(now time.Duration) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt <= 0 {
		t.Fatal("read never completed")
	}
	if g.Stats().LogicalReads != 1 {
		t.Fatalf("LogicalReads = %d", g.Stats().LogicalReads)
	}
}

func TestReadBoundsChecked(t *testing.T) {
	g := newGroup(t, 4)
	if err := g.Read(g.DataSectors(), 8, nil); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := g.Write(-1, 8, nil); err == nil {
		t.Fatal("negative write accepted")
	}
	if err := g.Read(0, 0, nil); err == nil {
		t.Fatal("empty read accepted")
	}
}

func TestWriteSmallWritePenalty(t *testing.T) {
	g := newGroup(t, 4)
	var readDone, writeDone time.Duration
	if err := g.Read(0, 64, func(now time.Duration) { readDone = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	if err := g.Write(0, 64, func(now time.Duration) { writeDone = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	// The RMW write (read data+parity, then write both) takes longer than
	// the plain read did.
	if writeDone-readDone <= readDone {
		t.Fatalf("small write (%v) not slower than read (%v)", writeDone-readDone, readDone)
	}
	if g.Stats().LogicalWrites != 1 {
		t.Fatal("write not counted")
	}
}

func TestDegradedReadReconstruction(t *testing.T) {
	g := newGroup(t, 4)
	_, member, _ := g.locate(0)
	if err := g.FailDisk(member); err != nil {
		t.Fatal(err)
	}
	if g.failed != member {
		t.Fatal("failure not recorded")
	}
	done := false
	if err := g.Read(0, 64, func(time.Duration) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("degraded read never completed")
	}
	if g.Stats().DegradedReads != 1 {
		t.Fatalf("DegradedReads = %d", g.Stats().DegradedReads)
	}
	// Double failure rejected.
	if err := g.FailDisk((member + 1) % 4); err == nil {
		t.Fatal("second failure accepted")
	}
	if err := g.FailDisk(99); err == nil {
		t.Fatal("bogus index accepted")
	}
}

func TestRebuildBackToBack(t *testing.T) {
	g := newGroup(t, 3)
	if err := g.StartRebuild(0, nil); err == nil {
		t.Fatal("rebuild without failure accepted")
	}
	if err := g.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	var finished time.Duration
	if err := g.StartRebuild(0, func(now time.Duration) { finished = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.StartRebuild(0, nil); err == nil {
		t.Fatal("double rebuild accepted")
	}
	if !g.Rebuilding() {
		t.Fatal("not rebuilding")
	}
	if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if finished == 0 {
		t.Fatalf("rebuild incomplete: %.1f%%", 100*g.RebuildProgress())
	}
	if g.failed != -1 || g.Rebuilding() {
		t.Fatal("spare not promoted")
	}
	st := g.Stats()
	if st.RebuildRows != g.rowsTotal {
		t.Fatalf("rebuilt %d rows, want %d", st.RebuildRows, g.rowsTotal)
	}
	// The array serves reads normally again (from the promoted spare).
	done := false
	if err := g.Read(0, 64, func(time.Duration) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	if !done || g.Stats().DegradedReads != 0 {
		t.Fatal("post-rebuild read degraded")
	}
}

// fgLoad drives periodic logical reads against the group.
func fgLoad(g *Group, seed int64, period time.Duration, count int) *[]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	responses := &[]time.Duration{}
	for i := 0; i < count; i++ {
		at := time.Duration(i) * period
		lba := rng.Int63n(g.DataSectors() - 64)
		g.Sim().At(at, func() {
			start := g.Sim().Now()
			_ = g.Read(lba, 64, func(now time.Duration) {
				*responses = append(*responses, now-start)
			})
		})
	}
	return responses
}

func TestRebuildWaitingGentlerThanBackToBack(t *testing.T) {
	// The paper's framework applied to rebuild I/O: Waiting-paced rebuild
	// must slow foreground reads less than back-to-back rebuild, at the
	// cost of a longer rebuild.
	run := func(threshold time.Duration) (meanResp time.Duration, rebuildTime time.Duration) {
		g := newGroup(t, 3)
		if err := g.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		responses := fgLoad(g, 42, 40*time.Millisecond, 500)
		var finish time.Duration
		if err := g.StartRebuild(threshold, func(now time.Duration) { finish = now }); err != nil {
			t.Fatal(err)
		}
		if err := g.Sim().RunUntil(30 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, r := range *responses {
			total += r
		}
		if len(*responses) == 0 {
			t.Fatal("no foreground responses")
		}
		if finish == 0 {
			finish = 30 * time.Minute // unfinished: cap for comparison
		}
		return total / time.Duration(len(*responses)), finish
	}
	fastResp, fastRebuild := run(0)
	gentleResp, gentleRebuild := run(15 * time.Millisecond)
	if gentleResp >= fastResp {
		t.Fatalf("waiting rebuild (%v mean resp) not gentler than back-to-back (%v)",
			gentleResp, fastResp)
	}
	if gentleRebuild <= fastRebuild {
		t.Fatalf("waiting rebuild (%v) not slower than back-to-back (%v)",
			gentleRebuild, fastRebuild)
	}
}

// Property: locate is a bijection between logical LBAs and (member,
// memberLBA) pairs off the parity slots.
func TestPropertyLocateBijective(t *testing.T) {
	g := newGroup(t, 5)
	seen := map[[2]int64]int64{}
	f := func(raw uint32) bool {
		lba := int64(raw) % g.DataSectors()
		_, member, mLBA := g.locate(lba)
		key := [2]int64{int64(member), mLBA}
		if prev, ok := seen[key]; ok {
			return prev == lba
		}
		seen[key] = lba
		return member >= 0 && member < 5 && mLBA >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildHitsLatentErrors(t *testing.T) {
	// The paper's data-loss mode: a latent sector error on a survivor
	// surfaces during reconstruction, when no redundancy is left.
	g := newGroup(t, 3)
	if err := g.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	// Inject LSEs on a survivor.
	g.Member(1).Disk().InjectLSE(1000)
	g.Member(1).Disk().InjectLSE(1001)
	g.Member(2).Disk().InjectLSE(50000)
	if err := g.StartRebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.RebuildRows != g.rowsTotal {
		t.Fatal("rebuild incomplete")
	}
	// Two distinct stripes lost (1000/1001 share a row; 50000 is another).
	if st.UnrecoverableStripes != 2 {
		t.Fatalf("UnrecoverableStripes = %d, want 2", st.UnrecoverableStripes)
	}
	if st.LSEsHitDuringRebuild != 3 {
		t.Fatalf("LSEsHitDuringRebuild = %d, want 3", st.LSEsHitDuringRebuild)
	}
}

func TestScrubRepairBeforeRebuildPreventsLoss(t *testing.T) {
	// The whole point of scrubbing, end to end: detect and repair the LSE
	// before the disk failure, and the rebuild completes cleanly.
	g := newGroup(t, 3)
	g.Member(1).Disk().InjectLSE(1000)
	// A scrub pass (here: direct verify sweep) finds and repairs it.
	d := g.Member(1).Disk()
	if d.LSECount() != 1 {
		t.Fatal("injection failed")
	}
	d.RepairLSE(1000)
	if err := g.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := g.StartRebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if g.Stats().UnrecoverableStripes != 0 {
		t.Fatalf("lost %d stripes despite pre-repair", g.Stats().UnrecoverableStripes)
	}
}

func TestMemberAccessor(t *testing.T) {
	g := newGroup(t, 3)
	if g.Member(0) == nil || g.Member(2) == nil {
		t.Fatal("member accessor broken")
	}
	if g.Member(-1) != nil || g.Member(3) != nil {
		t.Fatal("out-of-range member not nil")
	}
}
