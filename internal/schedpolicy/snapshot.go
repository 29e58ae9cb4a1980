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
//
//scrublint:snapshot Waiting
type WaitingState struct {
	HasPending bool
	PendingAt  time.Duration
	PendingSeq uint64
}

// SaveState records the policy's threshold timer into dst.
func (w *Waiting) SaveState(dst *WaitingState) {
	dst.HasPending, dst.PendingAt, dst.PendingSeq = w.timer.Record()
}

// RestoreState overwrites an attached policy with a snapshot; the policy
// may be fresh or may have run another member. The simulator clock must
// already be restored.
func (w *Waiting) RestoreState(st *WaitingState) error {
	if err := w.timer.Restore(st.HasPending, st.PendingAt, st.PendingSeq); err != nil {
		return fmt.Errorf("schedpolicy: restore waiting timer: %w", err)
	}
	return nil
}
