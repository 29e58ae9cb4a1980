// Package disk implements a mechanical disk-drive model: zoned geometry,
// a seek-time curve, continuous platter rotation, an on-disk segmented
// read cache, and the SCSI/ATA command semantics the paper measures. It is
// the substitute for the paper's physical drives (Section III-A and
// Figures 1, 4, 5); every service time is computed from first principles
// on a virtual clock, so runs are exactly reproducible.
package disk

import (
	"fmt"
	"time"
)

// SectorSize is the fixed logical sector size in bytes.
const SectorSize = 512

// Interface enumerates the disk command interfaces the paper compares.
type Interface int

const (
	// SCSI covers parallel SCSI drives.
	SCSI Interface = iota + 1
	// SAS covers serial-attached SCSI drives.
	SAS
	// ATA covers ATA/SATA drives. Per the paper's Fig. 1 finding, ATA
	// drives implement VERIFY against the on-disk cache.
	ATA
)

// String implements fmt.Stringer.
func (i Interface) String() string {
	switch i {
	case SCSI:
		return "SCSI"
	case SAS:
		return "SAS"
	case ATA:
		return "ATA"
	default:
		return fmt.Sprintf("Interface(%d)", int(i))
	}
}

// Model holds the parameters of a drive model. The catalog below provides
// calibrated instances for the six drives the paper uses; parameters are
// estimates from public spec sheets, tuned so that the model reproduces
// the response-time bands of the paper's Figures 1 and 4.
type Model struct {
	// Name identifies the drive model.
	Name string
	// Intf is the command interface.
	Intf Interface
	// CapacityBytes is the usable capacity.
	CapacityBytes int64
	// RPM is the spindle speed.
	RPM int
	// Cylinders is the number of cylinder positions.
	Cylinders int
	// Heads is the number of read/write heads (tracks per cylinder).
	Heads int
	// ZoneRatio is the outer-to-inner sectors-per-track ratio (>= 1).
	ZoneRatio float64
	// SettleTime is the fixed portion of any non-zero seek.
	SettleTime time.Duration
	// FullSeek is the full-stroke seek time.
	FullSeek time.Duration
	// TrackSkew is the angular offset between logically consecutive
	// tracks, as a fraction of a revolution, hiding head/cylinder switch
	// time during sequential transfers.
	TrackSkew float64
	// CommandOverhead is controller processing before mechanics start.
	CommandOverhead time.Duration
	// CompletionOverhead is status propagation after mechanics finish and
	// before the host sees completion; the platter keeps rotating during
	// it, which is what makes back-to-back sequential VERIFY miss a full
	// revolution (the paper's Section IV-A explanation).
	CompletionOverhead time.Duration
	// CacheBytes is the size of the on-disk read cache.
	CacheBytes int64
	// CacheSegments is the number of cache segments.
	CacheSegments int
	// ReadAheadBytes is the readahead appended to cached reads.
	ReadAheadBytes int64
	// BusBytesPerSec is the host-transfer rate for cache hits.
	BusBytesPerSec float64
	// VerifyFromCache marks drives whose VERIFY is (incorrectly) served
	// from the on-disk cache: the ATA behaviour of Fig. 1. Such VERIFYs
	// also pollute the cache via readahead.
	VerifyFromCache bool
}

// RotationTime returns the time of one platter revolution.
func (m *Model) RotationTime() time.Duration {
	if m.RPM <= 0 {
		return 0
	}
	return time.Duration(float64(time.Minute) / float64(m.RPM))
}

// Sectors returns the drive capacity in sectors.
func (m *Model) Sectors() int64 { return m.CapacityBytes / SectorSize }

// Validate checks the parameter set for consistency.
func (m *Model) Validate() error {
	switch {
	case m.CapacityBytes < SectorSize:
		return fmt.Errorf("disk: model %q: capacity %d too small", m.Name, m.CapacityBytes)
	case m.RPM <= 0:
		return fmt.Errorf("disk: model %q: non-positive RPM", m.Name)
	case m.Cylinders < 2:
		return fmt.Errorf("disk: model %q: need >= 2 cylinders", m.Name)
	case m.Heads < 1:
		return fmt.Errorf("disk: model %q: need >= 1 head", m.Name)
	case m.Sectors()/int64(m.Cylinders)+int64(m.Heads) >= 1<<30:
		// The outermost cylinder holds under twice the average plus one
		// sector per head, so this keeps every cylinder below 2^31
		// sectors, which the geometry's 32-bit zone arithmetic needs.
		return fmt.Errorf("disk: model %q: cylinders too large (%d sectors each on average, %d heads)",
			m.Name, m.Sectors()/int64(m.Cylinders), m.Heads)
	case m.ZoneRatio < 1:
		return fmt.Errorf("disk: model %q: zone ratio %f < 1", m.Name, m.ZoneRatio)
	case m.FullSeek < m.SettleTime:
		return fmt.Errorf("disk: model %q: full seek < settle time", m.Name)
	case m.TrackSkew < 0 || m.TrackSkew >= 1:
		return fmt.Errorf("disk: model %q: track skew %f outside [0,1)", m.Name, m.TrackSkew)
	case m.BusBytesPerSec <= 0:
		return fmt.Errorf("disk: model %q: non-positive bus rate", m.Name)
	}
	return nil
}

// The calibrated drive catalog. Constructors return fresh copies so
// callers may tweak fields without aliasing.

// HitachiUltrastar15K450 returns the paper's primary SAS test drive
// (300 GB, 15k RPM).
func HitachiUltrastar15K450() Model {
	return Model{
		Name:               "Hitachi Ultrastar 15K450 300GB",
		Intf:               SAS,
		CapacityBytes:      300 * 1000 * 1000 * 1000,
		RPM:                15000,
		Cylinders:          115000,
		Heads:              6,
		ZoneRatio:          1.5,
		SettleTime:         600 * time.Microsecond,
		FullSeek:           6500 * time.Microsecond,
		TrackSkew:          0.10,
		CommandOverhead:    100 * time.Microsecond,
		CompletionOverhead: 200 * time.Microsecond,
		CacheBytes:         16 << 20,
		CacheSegments:      32,
		ReadAheadBytes:     512 << 10,
		BusBytesPerSec:     300e6,
		VerifyFromCache:    false,
	}
}

// FujitsuMAX3073RC returns the secondary SAS drive (73 GB, 15k RPM).
func FujitsuMAX3073RC() Model {
	return Model{
		Name:               "Fujitsu MAX3073RC 73GB",
		Intf:               SAS,
		CapacityBytes:      73 * 1000 * 1000 * 1000,
		RPM:                15000,
		Cylinders:          52000,
		Heads:              4,
		ZoneRatio:          1.45,
		SettleTime:         700 * time.Microsecond,
		FullSeek:           7000 * time.Microsecond,
		TrackSkew:          0.11,
		CommandOverhead:    110 * time.Microsecond,
		CompletionOverhead: 220 * time.Microsecond,
		CacheBytes:         16 << 20,
		CacheSegments:      32,
		ReadAheadBytes:     512 << 10,
		BusBytesPerSec:     300e6,
		VerifyFromCache:    false,
	}
}

// FujitsuMAP3367NP returns the parallel-SCSI drive (36 GB, 10k RPM).
func FujitsuMAP3367NP() Model {
	return Model{
		Name:               "Fujitsu MAP3367NP 36GB",
		Intf:               SCSI,
		CapacityBytes:      36 * 1000 * 1000 * 1000,
		RPM:                10025,
		Cylinders:          36000,
		Heads:              4,
		ZoneRatio:          1.4,
		SettleTime:         2000 * time.Microsecond,
		FullSeek:           9000 * time.Microsecond,
		TrackSkew:          0.12,
		CommandOverhead:    150 * time.Microsecond,
		CompletionOverhead: 250 * time.Microsecond,
		CacheBytes:         8 << 20,
		CacheSegments:      16,
		ReadAheadBytes:     256 << 10,
		BusBytesPerSec:     160e6,
		VerifyFromCache:    false,
	}
}

// WDCaviar returns the WD Caviar SATA drive (7200 RPM) whose VERIFY is
// served from the on-disk cache (the Fig. 1 finding).
func WDCaviar() Model {
	return Model{
		Name:               "WD Caviar 320GB",
		Intf:               ATA,
		CapacityBytes:      320 * 1000 * 1000 * 1000,
		RPM:                7200,
		Cylinders:          90000,
		Heads:              4,
		ZoneRatio:          1.6,
		SettleTime:         2500 * time.Microsecond,
		FullSeek:           12000 * time.Microsecond,
		TrackSkew:          0.12,
		CommandOverhead:    250 * time.Microsecond,
		CompletionOverhead: 250 * time.Microsecond,
		CacheBytes:         16 << 20,
		CacheSegments:      16,
		ReadAheadBytes:     512 << 10,
		BusBytesPerSec:     200e6,
		VerifyFromCache:    true,
	}
}

// HitachiDeskstar returns the Hitachi Deskstar SATA drive (7200 RPM), also
// exhibiting the ATA VERIFY-from-cache behaviour.
func HitachiDeskstar() Model {
	return Model{
		Name:               "Hitachi Deskstar 500GB",
		Intf:               ATA,
		CapacityBytes:      500 * 1000 * 1000 * 1000,
		RPM:                7200,
		Cylinders:          110000,
		Heads:              6,
		ZoneRatio:          1.6,
		SettleTime:         2400 * time.Microsecond,
		FullSeek:           11500 * time.Microsecond,
		TrackSkew:          0.12,
		CommandOverhead:    240 * time.Microsecond,
		CompletionOverhead: 240 * time.Microsecond,
		CacheBytes:         16 << 20,
		CacheSegments:      16,
		ReadAheadBytes:     512 << 10,
		BusBytesPerSec:     200e6,
		VerifyFromCache:    true,
	}
}

// DemoSmall returns a deliberately tiny drive (2 GB) with the Ultrastar's
// mechanics, for demos and tests that need full scrub passes (and hence
// full fault-detection cycles) within seconds of virtual time. It is not
// part of the paper's testbed and is excluded from Catalog.
func DemoSmall() Model {
	m := HitachiUltrastar15K450()
	m.Name = "Demo 2GB (scaled Ultrastar mechanics)"
	m.CapacityBytes = 2 * 1000 * 1000 * 1000
	m.Cylinders = 800
	m.Heads = 2
	return m
}

// Catalog returns all drive models in the paper's testbed.
func Catalog() []Model {
	return []Model{
		HitachiUltrastar15K450(),
		FujitsuMAX3073RC(),
		FujitsuMAP3367NP(),
		WDCaviar(),
		HitachiDeskstar(),
	}
}
