package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer's epoch; Parent is the enclosing span's
// ID (0 for a top-level span); Run identifies the grid run or HTTP
// request the call served (-1 when it serves neither).
type span struct {
	ID, Parent int32
	Run        int64
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run writes them out. A
// nil tracer records nothing, which is how the timed (untraced) runs
// call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int32, run int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write saves the spans as tab-separated lines: id, parent, run, name,
// start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Run, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (calls
// made concurrently under one parent) are counted once, and a child's
// interval is clipped to its parent's.
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerStat sums one span name's calls.
type layerStat struct {
	calls int
	self  int64 // summed self time, ns
}

// byName groups spans by name with their self times.
func byName(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.self += self[s.ID]
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that has at least ten
// samples beyond it: the (n-10)th smallest value, which is percentile
// 100·(n-10)/n. With ten or fewer samples no percentile qualifies and
// ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}
