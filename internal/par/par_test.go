package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 57
		counts := make([]atomic.Int64, n)
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachAggregatesErrorsInIndexOrder(t *testing.T) {
	err := ForEach(context.Background(), 4, 10, func(_ context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors dropped")
	}
	msg := err.Error()
	var idx []int
	for _, want := range []string{"task 0 failed", "task 3 failed", "task 6 failed", "task 9 failed"} {
		p := strings.Index(msg, want)
		if p < 0 {
			t.Fatalf("missing %q in %q", want, msg)
		}
		idx = append(idx, p)
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] < idx[i-1] {
			t.Fatalf("errors out of index order: %q", msg)
		}
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 1, 100, func(_ context.Context, i int) error {
		if i == 3 {
			cancel()
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 100 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic swallowed")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("panic lost its value: %v", r)
		}
	}()
	_ = ForEach(context.Background(), 4, 16, func(_ context.Context, i int) error {
		if i == 5 {
			panic("boom")
		}
		return nil
	})
}

func TestDoWritesIndexAddressed(t *testing.T) {
	n := 200
	out := make([]int, n)
	Do(8, n, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("auto resolution returned < 1")
	}
}

func TestSubSeedStableAndDistinct(t *testing.T) {
	a := SubSeed(1, "fig4", "driveA", "64")
	if b := SubSeed(1, "fig4", "driveA", "64"); a != b {
		t.Fatal("SubSeed not stable")
	}
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 7} {
		for _, key := range [][]string{{"a"}, {"b"}, {"a", "b"}, {"ab"}, {"a", ""}, {}} {
			s := SubSeed(base, key...)
			id := fmt.Sprintf("base=%d key=%v", base, key)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s vs %s", prev, id)
			}
			seen[s] = id
		}
	}
	// Concatenation must not alias: ("ab","c") vs ("a","bc").
	if SubSeed(1, "ab", "c") == SubSeed(1, "a", "bc") {
		t.Fatal("key parts alias under concatenation")
	}
}
