package runner

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		out := Map(p, 100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d, want 100", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEachIndexOnce(t *testing.T) {
	p := New(8)
	var counts [500]atomic.Int32
	Map(p, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d evaluated %d times, want exactly once", i, c)
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	fn := func(i int) float64 { return float64(i) * 1.5 }
	seq := Map(New(1), 257, fn)
	par := Map(New(7), 257, fn)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel result diverged at %d: %v != %v", i, par[i], seq[i])
		}
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	p := New(4)
	if out := Map(p, 0, func(i int) int { return i }); out != nil {
		t.Errorf("Map(0) = %v, want nil", out)
	}
	if out := Map(p, -3, func(i int) int { return i }); out != nil {
		t.Errorf("Map(-3) = %v, want nil", out)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-1).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-1).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Errorf("New(5).Workers() = %d, want 5", w)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T %v, want *PanicError", r, r)
		}
		if pe.Value != "boom-17" {
			t.Errorf("wrapped value = %v, want the worker's panic value", pe.Value)
		}
		// The whole point of the wrapper: the worker's frames survive.
		if !strings.Contains(string(pe.Stack), "TestMapPanicPropagates") {
			t.Errorf("worker stack missing the panicking fn's frame:\n%s", pe.Stack)
		}
		if !strings.Contains(pe.Error(), "boom-17") || !strings.Contains(pe.Error(), "worker stack") {
			t.Errorf("Error() should include value and stack: %s", pe.Error())
		}
	}()
	Map(New(4), 64, func(i int) int {
		if i == 17 {
			panic("boom-17")
		}
		return i
	})
	t.Error("Map returned instead of panicking")
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("inner")
	pe := &PanicError{Value: sentinel}
	if !errors.Is(pe, sentinel) {
		t.Error("PanicError should unwrap to the original error value")
	}
	if (&PanicError{Value: "not an error"}).Unwrap() != nil {
		t.Error("non-error panic values unwrap to nil")
	}
}
