// Package raid quantifies the reliability motivation of the paper's
// introduction: latent sector errors destroy data when they surface
// during RAID reconstruction, so the scrubber's MLET translates directly
// into an array's data-loss rate. The model is the standard Markov-style
// MTTDL analysis extended with an LSE term: by Little's law, a disk
// carries lambda*MLET latent errors in expectation, and a rebuild that
// reads N-1 surviving disks end to end trips over any of them.
package raid

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Array describes one redundancy group.
type Array struct {
	// Disks is the total number of drives (data + parity).
	Disks int
	// DiskMTTF is the per-drive mean time to failure.
	DiskMTTF time.Duration
	// RebuildTime is the time to reconstruct one failed drive.
	RebuildTime time.Duration
	// LSERate is the per-drive rate of latent-sector-error *events*
	// per hour (bursts count once: any error in a read stripe fails the
	// reconstruction of that stripe).
	LSERate float64
	// ScrubMLET is the mean latent error time the scrubbing policy
	// achieves; lower MLET means fewer undetected errors at rebuild time.
	ScrubMLET time.Duration
	// StripeWidth is the number of drives each parity stripe touches
	// (data + parity). Zero or Disks means the classical clustered
	// layout where every stripe spans the whole array; a width k < Disks
	// models declustered parity (Thomasian, arXiv 2306.08763): stripes
	// are spread over all Disks drives but each individual stripe only
	// has k-1 surviving stripe-mates to read during a rebuild, so the
	// reconstruction reads k-1 disks' worth of data instead of Disks-1
	// and the rebuild work fans out across the array.
	StripeWidth int
}

// stripeWidth returns the effective width (Disks when clustered).
func (a Array) stripeWidth() int {
	if a.StripeWidth == 0 {
		return a.Disks
	}
	return a.StripeWidth
}

// Validate checks the parameters.
func (a Array) Validate() error {
	switch {
	case a.Disks < 2:
		return errors.New("raid: need >= 2 disks")
	case a.DiskMTTF <= 0:
		return errors.New("raid: need positive MTTF")
	case a.RebuildTime <= 0:
		return errors.New("raid: need positive rebuild time")
	case a.LSERate < 0:
		return errors.New("raid: negative LSE rate")
	case a.ScrubMLET < 0:
		return errors.New("raid: negative MLET")
	case a.StripeWidth != 0 && (a.StripeWidth < 2 || a.StripeWidth > a.Disks):
		return errors.New("raid: stripe width must be in [2, Disks]")
	}
	return nil
}

// LatentErrorsPerDisk returns the expected number of undetected LSE
// events present on one disk (Little's law: arrival rate x mean
// residence time, where scrubbing bounds residence at the MLET).
func (a Array) LatentErrorsPerDisk() float64 {
	return a.LSERate * a.ScrubMLET.Hours()
}

// RebuildLossProbability returns the probability that one reconstruction
// hits at least one latent error on the data it must read (single-fault
// redundancy: that stripe is unrecoverable). Clustered rebuilds read
// Disks-1 full survivors; declustered rebuilds read each lost stripe's
// k-1 surviving units, which totals k-1 disks' worth of data spread
// across the array, so the exposed-LSE budget scales with the stripe
// width, not the array size.
func (a Array) RebuildLossProbability() float64 {
	expected := float64(a.stripeWidth()-1) * a.LatentErrorsPerDisk()
	return 1 - math.Exp(-expected)
}

// SecondFailureProbability returns the probability a second drive fails
// during one rebuild window (the classical double-failure term).
func (a Array) SecondFailureProbability() float64 {
	rate := float64(a.Disks-1) / a.DiskMTTF.Hours()
	return 1 - math.Exp(-rate*a.RebuildTime.Hours())
}

// DataLossEventsPerYear returns the expected annual frequency of
// data-loss events: rebuilds happen at N/MTTF, and each is lost to
// either a latent error or a second whole-disk failure.
func (a Array) DataLossEventsPerYear() float64 {
	rebuildsPerYear := float64(a.Disks) / a.DiskMTTF.Hours() * 24 * 365
	pLse := a.RebuildLossProbability()
	pDouble := a.SecondFailureProbability()
	pLoss := 1 - (1-pLse)*(1-pDouble)
	return rebuildsPerYear * pLoss
}

// MTTDLYears returns the mean time to data loss in years (a float64:
// realistic arrays outlive time.Duration's ~292-year range).
func (a Array) MTTDLYears() float64 {
	events := a.DataLossEventsPerYear()
	if events <= 0 {
		return math.Inf(1)
	}
	return 1 / events
}

// Report summarizes the array's reliability under its scrubbing policy.
type Report struct {
	LatentPerDisk float64
	PLossLSE      float64
	PLossDouble   float64
	LossPerYear   float64
	MTTDLYears    float64
}

// Analyze validates and evaluates the array.
func Analyze(a Array) (Report, error) {
	if err := a.Validate(); err != nil {
		return Report{}, err
	}
	return Report{
		LatentPerDisk: a.LatentErrorsPerDisk(),
		PLossLSE:      a.RebuildLossProbability(),
		PLossDouble:   a.SecondFailureProbability(),
		LossPerYear:   a.DataLossEventsPerYear(),
		MTTDLYears:    a.MTTDLYears(),
	}, nil
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf(
		"latent/disk %.3f, P(loss|rebuild): lse %.4f double %.4f, %.3g losses/yr, MTTDL %.3g yr",
		r.LatentPerDisk, r.PLossLSE, r.PLossDouble, r.LossPerYear, r.MTTDLYears)
}
