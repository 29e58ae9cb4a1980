package blockdev_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
)

// verifyOver submits one VERIFY covering lba and runs the sim to
// completion, returning the finished request and queue stats.
func verifyOver(t *testing.T, p blockdev.RetryPolicy, lses ...int64) (*blockdev.Request, blockdev.QueueStats) {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	for _, lba := range lses {
		d.InjectLSE(lba)
	}
	q := blockdev.NewQueue(s, d, &fifoSched{})
	q.SetRetryPolicy(p)
	r := &blockdev.Request{
		Op: disk.OpVerify, LBA: 0, Sectors: 256,
		Class: blockdev.ClassBE, Origin: blockdev.Foreground,
	}
	q.Submit(r)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return r, q.Stats()
}

func TestRetryPolicyTable(t *testing.T) {
	tests := []struct {
		name          string
		policy        blockdev.RetryPolicy
		lses          []int64
		wantFail      bool
		wantRetries   int
		wantExhausted int64
		wantTimeouts  int64
	}{
		{
			name:     "clean media never fails",
			policy:   blockdev.RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond},
			wantFail: false,
		},
		{
			name:          "zero policy fails on first error",
			policy:        blockdev.RetryPolicy{},
			lses:          []int64{100},
			wantFail:      true,
			wantRetries:   0,
			wantExhausted: 1,
		},
		{
			name:          "budget spent after MaxRetries attempts",
			policy:        blockdev.RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond},
			lses:          []int64{100},
			wantFail:      true,
			wantRetries:   3,
			wantExhausted: 1,
		},
		{
			name: "timeout abandons remaining retries",
			// Each Ultrastar attempt costs ~ms-scale service; a 1 ns cap
			// means the first retry would already overrun it.
			policy:       blockdev.RetryPolicy{MaxRetries: 10, Backoff: time.Millisecond, Timeout: time.Nanosecond},
			lses:         []int64{100},
			wantFail:     true,
			wantRetries:  0,
			wantTimeouts: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, st := verifyOver(t, tc.policy, tc.lses...)
			if failed := r.Err != nil; failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v (err %v)", failed, tc.wantFail, r.Err)
			}
			if tc.wantFail {
				var me *disk.MediumError
				if !errors.As(r.Err, &me) {
					t.Fatalf("Err = %v, want *disk.MediumError", r.Err)
				}
				if me.First() != tc.lses[0] {
					t.Fatalf("Err.First = %d, want %d", me.First(), tc.lses[0])
				}
			}
			if r.Retries != tc.wantRetries {
				t.Fatalf("Retries = %d, want %d", r.Retries, tc.wantRetries)
			}
			if st.Retries != int64(tc.wantRetries) {
				t.Fatalf("stats.Retries = %d, want %d", st.Retries, tc.wantRetries)
			}
			if st.RetryExhausted != tc.wantExhausted {
				t.Fatalf("stats.RetryExhausted = %d, want %d", st.RetryExhausted, tc.wantExhausted)
			}
			if st.Timeouts != tc.wantTimeouts {
				t.Fatalf("stats.Timeouts = %d, want %d", st.Timeouts, tc.wantTimeouts)
			}
			wantAttempts := int64(0)
			if len(tc.lses) > 0 {
				wantAttempts = int64(tc.wantRetries) + 1
			}
			if st.MediumErrors != wantAttempts {
				t.Fatalf("stats.MediumErrors = %d, want %d", st.MediumErrors, wantAttempts)
			}
		})
	}
}

// Retries hold the device busy and each attempt pays full service time,
// so a retried request must finish strictly later than an unretried one.
func TestRetryHoldsDeviceAndCostsTime(t *testing.T) {
	fast, _ := verifyOver(t, blockdev.RetryPolicy{}, 100)
	slow, _ := verifyOver(t, blockdev.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}, 100)
	if slow.Done <= fast.Done {
		t.Fatalf("retried Done %v <= unretried Done %v", slow.Done, fast.Done)
	}
	if got, want := slow.Done-fast.Done, 2*time.Millisecond; got < want {
		t.Fatalf("retry cost %v, want at least the 2 backoffs (%v)", got, want)
	}
}

// The zero policy must preserve historical timing exactly: a medium
// error completes at the same virtual instant a successful verify of the
// same extent would (the Result timing is consumed as-is).
func TestZeroPolicyKeepsTiming(t *testing.T) {
	clean, _ := verifyOver(t, blockdev.RetryPolicy{})
	faulty, _ := verifyOver(t, blockdev.RetryPolicy{}, 100)
	if clean.Done != faulty.Done {
		t.Fatalf("medium-error completion %v != clean completion %v", faulty.Done, clean.Done)
	}
	if faulty.Err == nil || len(faulty.LSEs) != 1 {
		t.Fatalf("faulty request: Err=%v LSEs=%v, want error and [100]", faulty.Err, faulty.LSEs)
	}
}
