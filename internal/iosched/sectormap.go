package iosched

import "sort"

// SectorMap tracks known-bad LBA regions as sorted, disjoint half-open
// ranges. Bad-sector-aware schedulers learn regions from completed
// requests (medium errors, detected LSEs) and consult the map on every
// dispatch decision, so both operations stay O(log ranges) with
// amortized O(1) growth.
type SectorMap struct {
	starts []int64
	ends   []int64
}

// MarkBad records [lba, lba+n) as bad, merging with overlapping or
// adjacent known ranges.
func (m *SectorMap) MarkBad(lba, n int64) {
	if n <= 0 {
		return
	}
	end := lba + n
	// First range whose end reaches lba (possible merge partner).
	lo := sort.Search(len(m.starts), func(i int) bool { return m.ends[i] >= lba })
	// First range starting strictly after the new end (not mergeable).
	hi := sort.Search(len(m.starts), func(i int) bool { return m.starts[i] > end })
	if lo == hi {
		// No overlap or adjacency: insert.
		m.starts = append(m.starts, 0)
		m.ends = append(m.ends, 0)
		copy(m.starts[lo+1:], m.starts[lo:])
		copy(m.ends[lo+1:], m.ends[lo:])
		m.starts[lo], m.ends[lo] = lba, end
		return
	}
	// Coalesce [lo, hi) with the new range.
	if m.starts[lo] < lba {
		lba = m.starts[lo]
	}
	if m.ends[hi-1] > end {
		end = m.ends[hi-1]
	}
	m.starts[lo], m.ends[lo] = lba, end
	m.starts = append(m.starts[:lo+1], m.starts[hi:]...)
	m.ends = append(m.ends[:lo+1], m.ends[hi:]...)
}

// Overlaps reports whether [lba, lba+n) intersects any known-bad range.
func (m *SectorMap) Overlaps(lba, n int64) bool {
	if n <= 0 || len(m.starts) == 0 {
		return false
	}
	// First range ending after lba; it is the only candidate.
	i := sort.Search(len(m.starts), func(i int) bool { return m.ends[i] > lba })
	return i < len(m.starts) && m.starts[i] < lba+n
}

// Clear forgets [lba, lba+n): a successful write remapped the sectors,
// so the region is healthy again. Ranges straddling the boundary are
// trimmed (possibly split).
func (m *SectorMap) Clear(lba, n int64) {
	if n <= 0 || len(m.starts) == 0 {
		return
	}
	end := lba + n
	i := sort.Search(len(m.starts), func(i int) bool { return m.ends[i] > lba })
	for i < len(m.starts) && m.starts[i] < end {
		s, e := m.starts[i], m.ends[i]
		switch {
		case s >= lba && e <= end: // fully covered: drop
			m.starts = append(m.starts[:i], m.starts[i+1:]...)
			m.ends = append(m.ends[:i], m.ends[i+1:]...)
		case s < lba && e > end: // covers the hole: split
			m.starts = append(m.starts, 0)
			m.ends = append(m.ends, 0)
			copy(m.starts[i+2:], m.starts[i+1:])
			copy(m.ends[i+2:], m.ends[i+1:])
			m.ends[i] = lba
			m.starts[i+1], m.ends[i+1] = end, e
			return
		case s < lba: // overlaps the left edge: trim
			m.ends[i] = lba
			i++
		default: // overlaps the right edge: trim
			m.starts[i] = end
			return
		}
	}
}

// Ranges returns the number of disjoint bad ranges.
func (m *SectorMap) Ranges() int { return len(m.starts) }

// Reset forgets every range (keeps capacity).
func (m *SectorMap) Reset() {
	m.starts = m.starts[:0]
	m.ends = m.ends[:0]
}
