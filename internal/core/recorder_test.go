package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/optimize"
	"repro/internal/trace"
)

// driveWorkload submits trace records into a System's queue open-loop.
func driveWorkload(sys *System, tr *trace.Trace) {
	for _, rec := range tr.Records {
		rec := rec
		sys.Sim.At(rec.Arrival, func() {
			op := disk.OpRead
			if rec.Write {
				op = disk.OpWrite
			}
			lba := rec.LBA
			sectors := rec.Sectors
			if lba+sectors > sys.Disk.Sectors() {
				lba = 0
			}
			sys.Queue.Submit(&blockdev.Request{
				Op: op, LBA: lba, Sectors: sectors,
				Class: blockdev.ClassBE, Origin: blockdev.Foreground,
			})
		})
	}
}

func TestRecorderCapturesForegroundOnly(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyWaiting, WaitThreshold: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.AttachRecorder(0)
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(7, 2*time.Minute)
	driveWorkload(sys, tr)
	sys.Start()
	if err := sys.RunFor(context.Background(), 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	// The scrubber issued many requests; the recorder must hold only the
	// foreground ones.
	if rec.Len() != len(tr.Records) {
		t.Fatalf("recorded %d, workload had %d", rec.Len(), len(tr.Records))
	}
	records := rec.Records()
	if records[0].Arrival != 0 {
		t.Fatal("records not rebased")
	}
	for i := 1; i < len(records); i++ {
		if records[i].Arrival < records[i-1].Arrival {
			t.Fatal("records out of order")
		}
	}
}

func TestRecorderWindowTrims(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyWaiting})
	if err != nil {
		t.Fatal(err)
	}
	const window = 10 * time.Second
	rec := sys.AttachRecorder(window)
	// One request per second for a minute: only the last 10s survive,
	// the arrivals at 50s..59s.
	for i := 0; i < 60; i++ {
		at := time.Duration(i) * time.Second
		sys.Sim.At(at, func() {
			sys.Queue.Submit(&blockdev.Request{
				Op: disk.OpRead, LBA: 0, Sectors: 8,
				Class: blockdev.ClassBE, Origin: blockdev.Foreground,
			})
		})
	}
	if err := sys.RunFor(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 10 {
		t.Fatalf("window retained %d records, want 10", rec.Len())
	}
	cutoff := sys.Sim.Now() - window
	for _, r := range rec.live() {
		if r.Arrival < cutoff || r.Arrival > sys.Sim.Now() {
			t.Fatalf("record at %v outside window [%v, %v]", r.Arrival, cutoff, sys.Sim.Now())
		}
	}
	recs := rec.Records()
	if len(recs) != 10 {
		t.Fatalf("Records returned %d, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Arrival != time.Duration(i)*time.Second {
			t.Fatalf("record %d rebased to %v, want %v", i, r.Arrival, time.Duration(i)*time.Second)
		}
	}
}

func TestRetuneAppliesParameters(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyWaiting, WaitThreshold: 500 * time.Millisecond, ReqBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.AttachRecorder(0)
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(9, 15*time.Minute)
	driveWorkload(sys, tr)
	sys.Start()
	if err := sys.RunFor(context.Background(), 16*time.Minute); err != nil {
		t.Fatal(err)
	}
	before := sys.Config()
	choice, err := rec.Retune(optimize.Goal{
		MeanSlowdown: 2 * time.Millisecond,
		MaxSlowdown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Config()
	if after.ReqBytes != choice.ReqSectors*disk.SectorSize {
		t.Fatalf("size not applied: %d vs choice %d", after.ReqBytes, choice.ReqSectors*disk.SectorSize)
	}
	if after.WaitThreshold != choice.Threshold {
		t.Fatal("threshold not applied")
	}
	if after.ReqBytes == before.ReqBytes && after.WaitThreshold == before.WaitThreshold {
		t.Fatal("retune was a no-op on a deliberately mis-tuned system")
	}
	// The system keeps scrubbing with the new parameters.
	if err := sys.RunFor(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if sys.Report().ScrubMBps <= 0 {
		t.Fatal("no scrubbing after retune")
	}
}

func TestRetuneErrors(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyCFQIdle})
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.AttachRecorder(0)
	if _, err := rec.Retune(optimize.Goal{MeanSlowdown: time.Millisecond}); err == nil {
		t.Fatal("retune on cfq-idle accepted")
	}
	sys2, err := NewFromConfig(Config{Policy: PolicyWaiting})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := sys2.AttachRecorder(0)
	if _, err := rec2.Retune(optimize.Goal{MeanSlowdown: time.Millisecond}); err == nil {
		t.Fatal("retune with no history accepted")
	}
	if rec2.Records() != nil {
		t.Fatal("empty recorder returned records")
	}
}
