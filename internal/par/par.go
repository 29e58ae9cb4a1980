// Package par is the deterministic fan-out substrate of the parallel
// experiment engine. It provides bounded worker pools whose tasks are
// addressed by index — callers write results into pre-sized, index-owned
// slots, so goroutine scheduling can never influence what is computed or
// in which order it is assembled — plus stable per-task seed derivation,
// so every stochastic task owns a private RNG whose seed depends only on
// the base seed and the task's identity, never on execution order.
//
// These two rules are what make serial and parallel runs bit-identical:
// the same tasks compute the same values from the same seeds, and the
// caller assembles them in the same index order regardless of worker
// count.
package par

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// taskPanic carries a panic out of a worker goroutine so it can be
// re-raised on the caller's goroutine with the original stack attached.
type taskPanic struct {
	index int
	value any
	stack []byte
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (<= 0 means GOMAXPROCS). Tasks are dispatched in index order
// but may complete in any order; fn must confine its writes to state owned
// by index i. Errors are aggregated with errors.Join in index order. When
// ctx is canceled, no new tasks are dispatched and the context error is
// reported; already-running tasks finish. A panic in fn stops dispatch and
// is re-raised on the caller's goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var (
		next     atomic.Int64
		panicked atomic.Pointer[taskPanic]
		wg       sync.WaitGroup
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &taskPanic{index: i, value: r, stack: debug.Stack()})
			}
		}()
		errs[i] = fn(ctx, i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					// Keep claiming so every undispatched index reports
					// a not-run error, not a silent nil.
					errs[i] = fmt.Errorf("par: task %d not run: %w", i, err)
					continue
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(fmt.Sprintf("par: task %d panicked: %v\n%s", p.index, p.value, p.stack))
	}
	return errors.Join(errs...)
}

// Do is ForEach for infallible tasks: no context, no errors. Panics in fn
// still propagate to the caller.
func Do(workers, n int, fn func(i int)) {
	_ = ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
		fn(i)
		return nil
	})
}

// SubSeed derives a stable per-task seed from a base seed and the task's
// identity. The key parts are hashed with FNV-1a and the result mixed with
// the base through a splitmix64 finalizer, so related keys ("disk0",
// "disk1") land on statistically unrelated seeds. The derivation depends
// only on (base, key...), never on execution order — the property the
// engine's serial/parallel bit-identity rests on.
func SubSeed(base int64, key ...string) int64 {
	h := fnv.New64a()
	for _, k := range key {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0}) // separator: ("ab","c") != ("a","bc")
	}
	x := uint64(base) ^ h.Sum64()
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
