package scenario

import (
	"math"
	"sync"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// RunState owns the reusable allocations of one run slot: the event
// engine (node arena, heap, free list), the energy accountant and its
// radios, the subflow arena, the run bookkeeping struct, and the trace
// scratch buffers. Run draws states from a process-wide sync.Pool so the
// repeated seeded runs of an experiment grid stop paying the per-run
// allocation constant.
//
// Determinism: every reset restores exactly the state a fresh allocation
// would start with — the engine's event order depends only on (time,
// sequence) pairs, never node indices; radios and subflows are zeroed;
// RNG streams are rebuilt from the seed — so a pooled run is
// bit-identical to a fresh one (TestPooledRunsIdentical). Results never
// alias pooled memory: time-series scratch is cloned out in collect.
type RunState struct {
	eng      *sim.Engine
	acct     *energy.Accountant
	arena    tcp.Arena
	rngArena simrng.Arena
	r        run

	energyScratch stats.TimeSeries
	thrScratch    [energy.NumInterfaces]stats.TimeSeries
}

// statePool is a pointer so the leak-regression tests can swap in a
// counting pool (sync.Pool values cannot be reassigned once used).
var statePool = &sync.Pool{New: func() any { return new(RunState) }}

// reset rebuilds the run bookkeeping for one (scenario, protocol, opts)
// triple on the state's reused engine, accountant, and arena.
func (st *RunState) reset(sc Scenario, proto Protocol, opt Opts) *run {
	if st.eng == nil {
		st.eng = sim.New()
	} else {
		st.eng.Reset()
	}
	if st.acct == nil {
		st.acct = energy.NewAccountant(sc.Device)
	} else {
		st.acct.Reset(sc.Device)
	}
	st.arena.Reset()
	st.rngArena.Reset()
	r := &st.r
	*r = run{
		sc:       sc,
		proto:    proto,
		opt:      opt,
		complete: math.NaN(),
		eng:      st.eng,
		src:      st.rngArena.New(opt.Seed),
		acct:     st.acct,
		arena:    &st.arena,
		conns:    r.conns[:0],
		ctls:     r.ctls[:0],
		wfRules:  r.wfRules[:0],
	}
	if opt.Trace {
		st.energyScratch.Reset()
		r.energyTrace = &st.energyScratch
		for i := range r.thrTrace {
			st.thrScratch[i].Reset()
			r.thrTrace[i] = &st.thrScratch[i]
		}
	}
	return r
}
