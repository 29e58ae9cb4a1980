package schedpolicy

import (
	"fmt"
	"time"
)

// WaitingState is the serializable state of a Waiting policy: at most an
// armed threshold timer. The AR-family policies carry an online AR(p)
// predictor whose fitting history is deliberately not serializable here;
// fleet members that must park use Waiting (the paper's winning policy)
// or no policy at all.
type WaitingState struct {
	HasPending bool
	PendingAt  time.Duration
	PendingSeq uint64
}

// State captures the policy's serializable state.
func (w *Waiting) State() *WaitingState {
	st := &WaitingState{}
	if w.pending != nil {
		st.HasPending = true
		st.PendingAt = w.pending.At()
		st.PendingSeq = w.pending.Seq()
	}
	return st
}

// RestoreState overwrites an attached policy with a snapshot; the policy
// may be fresh or may have run another member. The simulator clock must
// already be restored.
func (w *Waiting) RestoreState(st *WaitingState) error {
	w.pending = nil
	if !st.HasPending {
		return nil
	}
	if w.fireFn == nil {
		return fmt.Errorf("schedpolicy: RestoreState before Attach")
	}
	ev, err := w.sim.RestoreAt(st.PendingAt, st.PendingSeq, w.fireFn)
	if err != nil {
		return fmt.Errorf("schedpolicy: restore waiting timer: %w", err)
	}
	w.pending = ev
	return nil
}
