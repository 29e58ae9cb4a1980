package disk

import "time"

// SSDState is the device's live state, and gob-encoded it is the
// serializable state of a parked one: injected errors, the service
// counters, and the positions of both GC cursors. The pause schedule
// itself is a pure function of the model seed, so a position is just a
// replay count — restoring regenerates the schedule deterministically,
// exactly like the fault injector's counting RNG. The cursors keep
// their own positions; a live SSD does not read GCIdx or GCQIdx, which
// SaveState fills.
type SSDState struct {
	LSEs     []int64
	Served   int64
	MediaOps int64
	GCIdx    int64         // service-cursor pauses generated
	GCQIdx   int64         // query-cursor pauses generated
	GCHits   int64         // requests delayed by a GC pause
	GCWait   time.Duration // total time requests spent waiting out pauses
}

// SaveState copies the device's state into dst, reusing dst's slices.
func (s *SSD) SaveState(dst *SSDState) {
	lses := dst.LSEs[:0]
	*dst = s.st
	dst.LSEs = append(lses, s.st.LSEs...)
	dst.GCIdx, dst.GCQIdx = s.gc.idx, s.gcq.idx
}

// RestoreState overwrites the device with a snapshot; the device may be
// fresh or may have served another member.
func (s *SSD) RestoreState(st *SSDState) {
	lses := s.st.LSEs[:0]
	s.st = *st
	s.st.LSEs = append(lses, st.LSEs...)
	if s.gcOn {
		s.gc = replayGCCursor(&s.model, st.GCIdx)
		s.gcq = replayGCCursor(&s.model, st.GCQIdx)
	}
}
