package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/idlesim"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestAutoTuneMatchesRecords pins the streaming contract: tuning from a
// Source must produce the identical Choice as tuning the idle-gap input
// built from the materialized records, because both reduce to the same
// gap sequence, request count and span.
func TestAutoTuneMatchesRecords(t *testing.T) {
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(5, 20*time.Minute)
	m := disk.HitachiUltrastar15K450()
	goal := optimize.Goal{MeanSlowdown: 2 * time.Millisecond, MaxSlowdown: 50 * time.Millisecond}

	arrivals := tr.Arrivals()
	in := idlesim.Input{
		Intervals: stats.IdleGaps(arrivals),
		Requests:  int64(len(arrivals)),
		Span:      arrivals[len(arrivals)-1] - arrivals[0],
	}
	want, err := optimize.Tuner{Workers: 1}.Tune(context.Background(), in, goal, idlesim.ScrubService(m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AutoTune(context.Background(), tr.Source(), m, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqSectors != want.ReqSectors || got.Threshold != want.Threshold {
		t.Fatalf("source tune differs: %+v vs %+v", got, want)
	}
	// A purely streaming source (no slice behind it) must agree too.
	got2, err := AutoTune(context.Background(), spec.Source(5, 20*time.Minute), m, goal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got2.ReqSectors != want.ReqSectors || got2.Threshold != want.Threshold {
		t.Fatalf("generator-source tune differs: %+v vs %+v", got2, want)
	}
}

// TestNewTunedSource tunes over a purely streaming generator source and
// checks that both tuned parameters reach the system's config.
func TestNewTunedSource(t *testing.T) {
	spec, _ := trace.ByName("HPc3t3d0")
	m := disk.HitachiUltrastar15K450()
	goal := optimize.Goal{MeanSlowdown: 2 * time.Millisecond, MaxSlowdown: 50 * time.Millisecond}
	sys, choice, err := NewTuned(spec.Source(5, 20*time.Minute), m, goal, Staggered)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().ReqBytes != choice.ReqSectors*disk.SectorSize {
		t.Fatal("tuned size not applied")
	}
	if sys.Config().WaitThreshold != choice.Threshold {
		t.Fatal("tuned threshold not applied")
	}
}

// TestAutoTuneSourceErrors checks that a source with a single record,
// which has no idle gap to tune on, is refused.
func TestAutoTuneSourceErrors(t *testing.T) {
	m := disk.HitachiUltrastar15K450()
	goal := optimize.Goal{MeanSlowdown: time.Millisecond}
	recs := []trace.Record{{LBA: 0, Sectors: 8}}
	if _, err := AutoTune(context.Background(), trace.NewSliceSource("one", 0, recs), m, goal, 1); err == nil {
		t.Fatal("single-record source accepted")
	}
	if _, _, err := NewTuned(trace.NewSliceSource("one", 0, recs), m, goal, Sequential); err == nil {
		t.Fatal("NewTuned accepted a single-record source")
	}
}
