package core

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Option configures a System at construction. Options are applied in
// order over the defaulted configuration, so later options win. Each
// option sets fields of a Config, the serializable template that
// NewFromConfig, fleet member classes and checkpoints take directly.
type Option func(*Config)

// WithAlgorithm selects the scrub order (default Staggered).
func WithAlgorithm(a AlgorithmKind) Option {
	return func(c *Config) { c.Algorithm = a }
}

// WithDevice selects any device model — rotational (disk.Model) or
// solid-state (disk.SSDModel) — overriding the model passed to New. The
// device model also owns the default wait threshold: flash idle windows
// are shorter than a disk arm's, so SSD-backed systems default lower.
func WithDevice(dm disk.DeviceModel) Option {
	return func(c *Config) { c.Device = dm }
}

// WithIOSched names the I/O scheduler: "cfq" (default), "deadline",
// "noop", or the bad-sector-aware elevators "bsa" and "bsa-repair".
// PolicyCFQIdle requires CFQ — the only scheduler with I/O priorities.
func WithIOSched(name string) Option {
	return func(c *Config) { c.Sched = name }
}

// WithRegions sets the staggered region count (default 128).
func WithRegions(n int) Option {
	return func(c *Config) { c.Regions = n }
}

// WithPolicy selects the scrub scheduling policy (default PolicyWaiting).
func WithPolicy(p PolicyKind) Option {
	return func(c *Config) { c.Policy = p }
}

// WithRequestBytes sets the scrub request size (default 64 KB).
func WithRequestBytes(n int64) Option {
	return func(c *Config) { c.ReqBytes = n }
}

// WithDelay sets the pause for PolicyFixedDelay.
func WithDelay(d time.Duration) Option {
	return func(c *Config) { c.Delay = d }
}

// WithWaitThreshold sets the idle threshold for PolicyWaiting and
// PolicyARWaiting (default 100 ms).
func WithWaitThreshold(d time.Duration) Option {
	return func(c *Config) { c.WaitThreshold = d }
}

// WithARThreshold sets the prediction threshold for PolicyAR and
// PolicyARWaiting (default: the wait threshold).
func WithARThreshold(d time.Duration) Option {
	return func(c *Config) { c.ARThreshold = d }
}

// WithAutoRepair rewrites sectors whose verify detected a latent error,
// completing the detect-and-correct loop (remap-on-detect).
func WithAutoRepair() Option {
	return func(c *Config) { c.AutoRepair = true }
}

// WithEscalation enables the Oprea–Juels region re-scrub: one detection
// immediately queues a verify of the whole surrounding region.
func WithEscalation() Option {
	return func(c *Config) { c.Escalate = true }
}

// WithObs instruments every layer of the stack against reg (see
// System.Instrument). Nil leaves the zero-overhead path in place.
func WithObs(reg *obs.Registry) Option {
	return func(c *Config) { c.Obs = reg }
}

// WithFaults attaches a latent-sector-error arrival model: a
// fault.Injector plants the model's stream on the disk once the system
// starts, and tracks every planted sector through detection and remap
// (System.Faults, Report's fault fields).
func WithFaults(m fault.Model) Option {
	return func(c *Config) { c.Faults = m }
}

// WithFaultSeed sets the fault stream's RNG seed (default 1).
func WithFaultSeed(seed int64) Option {
	return func(c *Config) { c.FaultSeed = seed }
}

// WithRetryPolicy bounds the block layer's reaction to medium errors:
// retries with backoff under a per-request timeout. The default is no
// retries.
func WithRetryPolicy(p blockdev.RetryPolicy) Option {
	return func(c *Config) { c.Retry = p }
}
