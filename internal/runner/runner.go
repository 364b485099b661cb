// Package runner is the deterministic parallel executor behind the
// experiment harness. Repeated seeded scenario runs are embarrassingly
// parallel — each owns its engine, RNG and accountant — so the harness
// fans them across a worker pool and merges results in index order,
// keeping every table byte-identical to a sequential run regardless of
// worker count or scheduling.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-width worker pool. Pools are cheap value-like objects:
// they hold no goroutines between calls, only a width, so building one per
// call site is fine.
type Pool struct {
	workers int
}

// New returns a pool of the given width. Non-positive widths select
// GOMAXPROCS, the number of usable cores.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// PanicError wraps a panic that escaped a worker's fn, preserving the
// worker goroutine's stack trace — the re-raise on the calling goroutine
// would otherwise discard it, leaving only Map's own frames.
type PanicError struct {
	// Value is what the worker passed to panic.
	Value any
	// Stack is the worker goroutine's stack at recover time.
	Stack []byte
}

// Error formats the panic value with the worker's stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: worker panic: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// Unwrap exposes the original panic value when it was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Map evaluates fn(0..n-1) across the pool's workers and returns the
// results in index order. With one worker (or n ≤ 1) it degenerates to the
// plain sequential loop, bit-for-bit. A panic in any fn is re-raised on
// the calling goroutine after the other workers drain, wrapped in a
// *PanicError carrying the worker's stack trace.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal atomic.Value
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if panicked.CompareAndSwap(false, true) {
						panicVal.Store(&PanicError{Value: r, Stack: debug.Stack()})
					}
				}
			}()
			for !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal.Load())
	}
	return out
}
