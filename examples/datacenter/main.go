// Datacenter: per-disk tuned scrubbing across a small heterogeneous fleet
// run through the sharded fleet engine. Every disk gets a staggered
// scrubber (the paper's Section IV recommendation: same throughput as
// sequential past 128 regions, lower mean latent-error time) whose
// request size and wait threshold are tuned to its own workload; the
// fleet's scrub coverage, error detections and full-pass ETAs are then
// reported — the operational view a storage operator cares about.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/optimize"
	"repro/internal/trace"
)

func main() {
	goal := optimize.Goal{
		MeanSlowdown: 2 * time.Millisecond,
		MaxSlowdown:  50 * time.Millisecond,
	}
	m := disk.HitachiUltrastar15K450()
	members := []struct{ name, workload string }{
		{"sourcectl-0", "MSRsrc11"},
		{"homes-1", "MSRusr1"},
		{"news-2", "HPc6t8d0"},
		{"projects-3", "HPc6t5d1"},
	}

	// Tune each disk to its own workload, then hand the engine one
	// single-member class per disk carrying the tuned parameters. Latent
	// sector errors arrive in spatial bursts, which is exactly what
	// staggered scrubbing exploits.
	classes := make([]fleet.MemberClass, len(members))
	for i, mem := range members {
		spec, ok := trace.ByName(mem.workload)
		if !ok {
			log.Fatalf("unknown trace %s", mem.workload)
		}
		choice, err := core.AutoTune(context.Background(), spec.Generate(11, 2*time.Hour).Source(), m, goal, 0)
		if err != nil {
			log.Fatalf("%s: %v", mem.name, err)
		}
		classes[i] = fleet.MemberClass{Name: mem.name, Count: 1, Config: core.Config{
			Model:         &m,
			Algorithm:     core.Staggered,
			Policy:        core.PolicyWaiting,
			ReqBytes:      choice.ReqSectors * disk.SectorSize,
			WaitThreshold: choice.Threshold,
			AutoRepair:    true,
			Faults:        fault.Bursty{RatePerHour: 4, MeanBurst: 5, ClusterSectors: 512},
		}}
	}

	e, err := fleet.New(fleet.Config{Slice: 15 * time.Minute, Seed: 99, KeepMembers: true}, classes)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := e.Run(context.Background(), time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %-10s %10s %10s %12s %10s %9s\n",
		"disk", "workload", "req size", "threshold", "scrub MB/s", "pass ETA", "LSEs")
	for i, r := range e.MemberReports() {
		cfg := classes[i].Config
		eta := "-"
		if r.ScrubMBps > 0 {
			eta = fmt.Sprintf("%.1fh", float64(m.CapacityBytes)/(r.ScrubMBps*1e6)/3600)
		}
		fmt.Printf("%-12s %-10s %8dKB %10v %12.2f %10s %5d/%d\n",
			members[i].name, members[i].workload, cfg.ReqBytes>>10,
			cfg.WaitThreshold.Round(time.Millisecond),
			r.ScrubMBps, eta, r.LSEsDetected, r.LSEsInjected)
	}
	fmt.Printf("\nfleet scrub rate on idle disks: %.1f MB/s total\n", rep.ScrubMBps)
	fmt.Println("(each disk tuned to its own workload; LSEs = detected/injected by the fault model)")
}
