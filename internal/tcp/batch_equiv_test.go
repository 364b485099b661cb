// Equivalence tests for the round-coalescing batcher. They live in the
// external test package so they can drive a real MPTCP connection
// (importing mptcp from package tcp would be a cycle) through the
// test-only hook in export_test.go.
package tcp_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/mptcp"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
)

// batchDigest captures everything the batcher could conceivably perturb:
// exact float bits of the clock and per-subflow congestion state, every
// counter, and the full JSONL trace byte stream.
type batchDigest struct {
	finalNow  uint64
	delivered units.ByteSize
	doneAt    float64
	rounds    [2]int
	losses    [2]int
	bytes     [2]units.ByteSize
	cwndBits  [2]uint64
	srttBits  [2]uint64
	dropped   uint64
	meter     uint64 // hash of what the tickers saw
	trace     []byte
}

// lossyConstant is a constant-rate capacity whose per-packet random
// loss probability is *loss, which the scenario flips mid-run.
type lossyConstant struct {
	*link.Constant
	loss *float64
}

func (c lossyConstant) LossProb() float64 { return *c.loss }

// runBatchScenario runs one seeded two-path MPTCP transfer — a WiFi path
// whose capacity flaps under an on/off modulator (rate changes between
// batched rounds), a lossy LTE path (per-round Bernoulli draws) whose
// loss probability switches between two levels every flipCs centiseconds
// until the download completes, an MP_PRIO suspend/resume cycle on LTE,
// a 0.1 s meter-like ticker that flips LTE's backup state on every
// meterBreak-th tick, and a second ticker with a period of tickCs
// centiseconds stopped mid-run — with the given round-coalescing cap, and
// digests the outcome.
func runBatchScenario(seed int64, lossPct, loss2Pct, flipCs, holdCs, suspendCs uint8, sizeKB uint16, disableReset bool, meterBreak, tickCs uint8, batchCap int) batchDigest {
	restore := tcp.SetMaxBatchRounds(batchCap)
	defer restore()

	eng := sim.New()
	rec := trace.NewJSONL(trace.AllKinds, 1<<17)
	eng.SetRecorder(rec)
	src := simrng.New(seed)

	wifiPath := &tcp.Path{
		Name: "wifi",
		Capacity: link.NewOnOffModulator(eng, simrng.New(seed^0x9e3779b9), units.MbpsRate(20),
			units.MbpsRate(1), 0.05+float64(holdCs)/100, true),
		BaseRTT: 0.02,
	}
	losses := [2]float64{float64(lossPct%20) / 100, float64(loss2Pct%20) / 100}
	loss := losses[0]
	ltePath := &tcp.Path{
		Name:     "lte",
		Capacity: lossyConstant{link.NewConstant(units.MbpsRate(8)), &loss},
		BaseRTT:  0.08,
	}

	opts := mptcp.DefaultOptions()
	opts.SubflowConfig.DisableIdleCwndReset = disableReset
	conn := mptcp.New(eng, src, opts)
	conn.AddSubflow("wifi", energy.WiFi, wifiPath, nil, 0)
	lte := conn.AddSubflow("lte", energy.LTE, ltePath, nil, 0.02)

	// The meter reads the transfer's progress, as the power monitor
	// does, so a tick run inline inside a batch must see exactly the
	// state its heap dispatch saw; every meterBreak-th tick also flips
	// LTE's backup state, an MP_PRIO change made from a tick that may run
	// inline within WiFi's batch. The download's completion stops it,
	// from inside a round.
	var meter uint64
	observe := func(tag uint64) {
		meter = meter*1099511628211 ^ tag ^ math.Float64bits(eng.Now()) ^ uint64(conn.Delivered())
	}
	ticks := 0
	meterTk := eng.Tick(0.1, func() {
		observe(1)
		ticks++
		if meterBreak > 0 && ticks%int(meterBreak) == 0 {
			conn.SetBackup(lte, !lte.Suspended())
		}
	})

	var doneAt float64 = -1
	conn.Download(units.ByteSize(sizeKB%2048+64)*units.KB, func(at float64) {
		doneAt = at
		meterTk.Stop()
	})

	// An MP_PRIO flip lands mid-transfer (and, with a live batch open on
	// the other subflow, mid-batch), then lifts again later.
	suspendAt := 0.1 + float64(suspendCs)/50
	eng.Schedule(suspendAt, func() { conn.SetBackup(lte, true) })
	eng.Schedule(suspendAt+0.4, func() { conn.SetBackup(lte, false) })

	// The second ticker stops mid-run: from another event at the resume
	// time, or, for odd tickCs, from its own callback on its tickCs-th
	// tick.
	var second *sim.Ticker
	secondTicks := 0
	second = eng.Tick(0.01+float64(tickCs)/100, func() {
		observe(2)
		secondTicks++
		if tickCs&1 == 1 && secondTicks == int(tickCs) {
			second.Stop()
		}
	})
	eng.Schedule(suspendAt+0.4, second.Stop)

	// The LTE loss probability switches mid-run, inside and between
	// batches, so the loss decision rebuilds its per-path constants.
	flipEvery := 0.02 + float64(flipCs)/100
	flips := 0
	var flip func()
	flip = func() {
		if doneAt >= 0 {
			return
		}
		flips++
		loss = losses[flips%2]
		eng.After(flipEvery, flip)
	}
	eng.After(flipEvery, flip)

	eng.Horizon = 120
	eng.Run()

	d := batchDigest{
		finalNow:  math.Float64bits(eng.Now()),
		delivered: conn.Delivered(),
		doneAt:    doneAt,
		dropped:   rec.Dropped(),
		meter:     meter,
	}
	for i, sf := range conn.Subflows() {
		d.rounds[i] = sf.Rounds
		d.losses[i] = sf.Losses
		d.bytes[i] = sf.BytesDelivered
		d.cwndBits[i] = math.Float64bits(sf.Cwnd())
		d.srttBits[i] = math.Float64bits(sf.SRTT())
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		panic(err)
	}
	d.trace = buf.Bytes()
	return d
}

// FuzzBatchedRoundEquivalence checks the batcher's core promise: with
// coalescing enabled, every run is bit-identical — counters, float bits,
// and the JSONL trace byte stream — to the same run with every round
// completion going through the event heap.
func FuzzBatchedRoundEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(512), false, uint8(0), uint8(10))
	f.Add(int64(2), uint8(5), uint8(2), uint8(10), uint8(20), uint8(10), uint16(1024), true, uint8(4), uint8(3))
	f.Add(int64(99), uint8(19), uint8(9), uint8(3), uint8(3), uint8(60), uint16(100), false, uint8(1), uint8(7))
	f.Add(int64(-7), uint8(10), uint8(0), uint8(40), uint8(90), uint8(120), uint16(2000), true, uint8(9), uint8(40))
	f.Add(int64(424242), uint8(1), uint8(5), uint8(1), uint8(50), uint8(0), uint16(64), false, uint8(2), uint8(0))
	f.Add(int64(31337), uint8(3), uint8(12), uint8(7), uint8(15), uint8(30), uint16(1500), false, uint8(0), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, lossPct, loss2Pct, flipCs, holdCs, suspendCs uint8, sizeKB uint16, disableReset bool, meterBreak, tickCs uint8) {
		batched := runBatchScenario(seed, lossPct, loss2Pct, flipCs, holdCs, suspendCs, sizeKB, disableReset, meterBreak, tickCs, 64)
		plain := runBatchScenario(seed, lossPct, loss2Pct, flipCs, holdCs, suspendCs, sizeKB, disableReset, meterBreak, tickCs, 0)
		if batched.finalNow != plain.finalNow {
			t.Errorf("final clock bits differ: batched %x, unbatched %x", batched.finalNow, plain.finalNow)
		}
		if batched.delivered != plain.delivered || batched.doneAt != plain.doneAt {
			t.Errorf("delivery differs: batched (%v, done %v), unbatched (%v, done %v)",
				batched.delivered, batched.doneAt, plain.delivered, plain.doneAt)
		}
		for i := 0; i < 2; i++ {
			if batched.rounds[i] != plain.rounds[i] || batched.losses[i] != plain.losses[i] ||
				batched.bytes[i] != plain.bytes[i] {
				t.Errorf("subflow %d counters differ: batched (%d rounds, %d losses, %v), unbatched (%d, %d, %v)",
					i, batched.rounds[i], batched.losses[i], batched.bytes[i],
					plain.rounds[i], plain.losses[i], plain.bytes[i])
			}
			if batched.cwndBits[i] != plain.cwndBits[i] || batched.srttBits[i] != plain.srttBits[i] {
				t.Errorf("subflow %d float bits differ: cwnd %x vs %x, srtt %x vs %x",
					i, batched.cwndBits[i], plain.cwndBits[i], batched.srttBits[i], plain.srttBits[i])
			}
		}
		if batched.meter != plain.meter {
			t.Errorf("tickers saw different states: batched %x, unbatched %x", batched.meter, plain.meter)
		}
		if batched.dropped != plain.dropped {
			t.Fatalf("trace drop counts differ: batched %d, unbatched %d", batched.dropped, plain.dropped)
		}
		if !bytes.Equal(batched.trace, plain.trace) {
			i := 0
			for i < len(batched.trace) && i < len(plain.trace) && batched.trace[i] == plain.trace[i] {
				i++
			}
			t.Errorf("trace streams diverge at byte %d (batched %d bytes, unbatched %d bytes)",
				i, len(batched.trace), len(plain.trace))
		}
	})
}
