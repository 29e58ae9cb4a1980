package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/core"
)

// gobBytes encodes st as a fleet checkpoint carries it, inside a
// one-slot checkpoint frame. Encoding the checkpoint type rather than a
// bare SystemState also keeps gob's process-wide type numbering in the
// order Checkpoint itself establishes, which TestCheckpointFixture's
// byte comparison depends on.
func gobBytes(t *testing.T, st *core.SystemState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint{Slots: []memberSlot{{State: st}}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParkedStatesShareNoMemory is the aliasing guard behind parking as
// a copy: a parked state must own every slice it holds. Member A parks,
// then member B runs on the same live stack — faults planted and
// detected, regions escalated, LSEs on the disk — and parks in turn;
// A's state and the class's pristine state must encode to the same
// bytes as before B ran. Restoring B and running it
// must likewise leave B's parked state untouched. A capture or restore
// that hands the live stack one of its slices fails here.
func TestParkedStatesShareNoMemory(t *testing.T) {
	cls := hotFaultClasses()[4] // bursty-hot: waiting policy, escalation, repair
	cls.Count = 2
	e, err := New(Config{Seed: testSeed}, []MemberClass{cls})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stacks := make([]*stack, 1)
	var agg aggregate
	a, b := &e.slots[0], &e.slots[1]

	if err := e.advance(ctx, 0, 40*time.Second, false, &agg, stacks); err != nil {
		t.Fatal(err)
	}
	if st := a.state; len(st.Disk.LSEs) == 0 || len(st.Fault.Arrival) == 0 || len(st.Scrub.Escalated) == 0 {
		t.Fatalf("member A parked without slices to alias: %d LSEs, %d arrivals, %d escalated regions",
			len(st.Disk.LSEs), len(st.Fault.Arrival), len(st.Scrub.Escalated))
	}
	wantA, wantPristine := gobBytes(t, a.state), gobBytes(t, stacks[0].pristine)

	for _, boundary := range []time.Duration{40 * time.Second, 80 * time.Second} {
		if err := e.advance(ctx, 1, boundary, false, &agg, stacks); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.state; st.Scrub.Stats.Escalations == 0 || st.Fault.Stats.Detected == 0 || len(st.Disk.LSEs) == 0 {
		t.Fatalf("member B exercised too little: %d escalations, %d detections, %d LSEs",
			st.Scrub.Stats.Escalations, st.Fault.Stats.Detected, len(st.Disk.LSEs))
	}
	if !bytes.Equal(gobBytes(t, a.state), wantA) {
		t.Error("member A's parked state changed while member B ran on its stack")
	}
	if !bytes.Equal(gobBytes(t, stacks[0].pristine), wantPristine) {
		t.Error("the class's pristine state changed while members ran on its stack")
	}

	wantB := gobBytes(t, b.state)
	sys := stacks[0].sys
	if err := sys.Restore(b.state, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(ctx, 40*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, b.state), wantB) {
		t.Error("member B's parked state changed while the stack ran on from it")
	}
}
