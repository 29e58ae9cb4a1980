package raidsim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/par"
)

// InjectFaults attaches a latent-sector-error arrival stream to every
// member disk and starts planting immediately. Each member gets its own
// deterministic sub-stream (derived from seed and the member index), so
// group runs are reproducible and member streams are independent — the
// per-drive independence the raid.Analyze model assumes. Call before
// driving the simulation; a second call is an error.
//
//scrublint:allow unusedexport ROADMAP item 8's reliability chain
func (g *Group) InjectFaults(m fault.Model, seed int64) error {
	if len(g.injectors) > 0 {
		return errors.New("raidsim: faults already injected")
	}
	for i, q := range g.members {
		in := fault.NewInjector(g.sim, q.Disk(), m, par.SubSeed(seed, "raidsim", fmt.Sprint(i)))
		in.AttachQueue(q)
		in.Start()
		g.injectors = append(g.injectors, in)
	}
	return nil
}

// FaultStats sums the LSE lifecycle counters over all member injectors.
// Zero-valued when InjectFaults was never called.
//
//scrublint:allow unusedexport ROADMAP item 8's reliability chain
func (g *Group) FaultStats() fault.Stats {
	var total fault.Stats
	for _, in := range g.injectors {
		s := in.Stats()
		total.Injected += s.Injected
		total.Detected += s.Detected
		total.Remapped += s.Remapped
		total.ClearedUndetected += s.ClearedUndetected
		total.DetectionTime += s.DetectionTime
	}
	return total
}
