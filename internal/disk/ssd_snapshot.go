package disk

import "time"

// SSDState is the serializable state of an SSD: injected errors, the
// service counters, and the positions of both GC cursors. The pause
// schedule itself is a pure function of the model seed, so a position is
// just a replay count — restoring regenerates the schedule
// deterministically, exactly like the fault injector's counting RNG.
type SSDState struct {
	LSEs     []int64
	Served   int64
	MediaOps int64
	GCIdx    int64 // service-cursor pauses generated
	GCQIdx   int64 // query-cursor pauses generated
	GCHits   int64
	GCWait   time.Duration
}

// State captures the device for serialization.
func (s *SSD) State() *SSDState {
	st := &SSDState{
		Served:   s.served,
		MediaOps: s.mediaOps,
		GCIdx:    s.gc.idx,
		GCQIdx:   s.gcq.idx,
		GCHits:   s.gcHits,
		GCWait:   s.gcWait,
	}
	if len(s.lses) > 0 {
		st.LSEs = append([]int64(nil), s.lses...)
	}
	return st
}

// RestoreState overwrites the device with a snapshot; the device may be
// fresh or may have served another member.
func (s *SSD) RestoreState(st *SSDState) {
	s.lses = append(s.lses[:0], st.LSEs...)
	s.served = st.Served
	s.mediaOps = st.MediaOps
	s.gcHits = st.GCHits
	s.gcWait = st.GCWait
	if s.gcOn {
		s.gc = replayGCCursor(&s.model, st.GCIdx)
		s.gcq = replayGCCursor(&s.model, st.GCQIdx)
	}
}

// RestoreSSD builds a device from a model and snapshot.
func RestoreSSD(m SSDModel, st *SSDState) (*SSD, error) {
	s, err := NewSSD(m)
	if err != nil {
		return nil, err
	}
	if st != nil {
		s.RestoreState(st)
	}
	return s, nil
}
