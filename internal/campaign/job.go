package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runcache"
	"repro/internal/scenario"
)

// Status is a campaign job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Options configures campaign execution.
type Options struct {
	// Disk, when non-nil, memoizes every run's result persistently
	// under its scenario.CacheKey. Re-running or resuming a campaign
	// (or any campaign whose grid overlaps) hits disk instead of
	// simulating.
	Disk *runcache.Store
	// Jobs is the local worker count (default GOMAXPROCS). Worker count
	// never affects the output bytes: shard boundaries and merge order
	// are fixed by the spec.
	Jobs int
	// LeaseTTL is the shard-lease expiry for distributed execution
	// (default DefaultLeaseTTL). A remote worker that stops renewing
	// for this long loses its shard to reassignment.
	LeaseTTL time.Duration
	// NoLocalExec makes Execute a pure coordinator: it spawns no local
	// folding workers and every shard must arrive through the lease
	// protocol (CompleteShard). Cancel still works; the output bytes
	// are identical to any other execution shape.
	NoLocalExec bool

	// now overrides the lease clock in tests.
	now func() time.Time
}

// Progress is a point-in-time snapshot of a job, JSON-shaped for the
// HTTP status endpoint.
type Progress struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Status    Status `json:"status"`
	Error     string `json:"error,omitempty"`
	TotalRuns uint64 `json:"total_runs"`
	RunsDone  uint64 `json:"runs_done"`
	// Simulated counts runs actually executed by an engine — locally
	// or, for leased-out shards, on the remote worker that reported
	// them; the rest were disk hits or collapsed in-flight duplicates.
	Simulated uint64  `json:"simulated"`
	DiskHits  uint64  `json:"disk_hits"`
	HitRate   float64 `json:"hit_rate"`
	// RemoteRuns counts runs folded by remote workers' shard
	// completions (included in RunsDone).
	RemoteRuns uint64 `json:"remote_runs"`
	// Leases is the shard-lease table snapshot: how the campaign is
	// spread across workers right now.
	Leases *LeaseState `json:"leases,omitempty"`
	// Aggregates is the streaming snapshot over the contiguous merged
	// prefix of shards — the same numbers the final result will
	// publish, just over fewer runs.
	Aggregates *Aggregates `json:"aggregates,omitempty"`
}

// executor folds shards of a compiled grid into aggregates: the part of
// campaign execution that is identical whether it runs inside the
// coordinator's Job or inside a remote `emptcpsim worker`. Each process
// owns one executor per campaign, with its own disk store, single-
// flight, and key memo. The grid's compiled scenarios and base keys are
// read-only, so the executor's goroutines share them: no run assembles
// a scenario or re-encodes one for its key.
type executor struct {
	g    *grid
	disk *runcache.Store

	// flight collapses concurrent duplicate runs (replicas landing in
	// different workers) without retaining results: the key is
	// forgotten as soon as the flight lands, so memory stays bounded
	// and later duplicates are served by the disk store instead.
	flight *runcache.Flight[scenario.Result]

	// keys memoizes the base grid's cache keys when Replicate > 1:
	// replica r of run i shares run i's key, so a replayed replica costs
	// a slice read instead of grid.keyAt's scenario.RunKey hash. Sized
	// to one replica — the base grid — so population-scale campaigns
	// (small grid, huge Replicate) pay O(base), not O(runs). Filled
	// once before the first shard folds; read-only after.
	keyOnce sync.Once
	keys    []runcache.Key
	keyOK   []bool
	baseN   uint64

	simulated atomic.Uint64
	diskHits  atomic.Uint64

	// reported-counter cursors for per-shard completion reports; see
	// counterDelta.
	reportMu        sync.Mutex
	repSim, repHits uint64
}

// counterDelta returns how much simulated/diskHits grew since the last
// call. Per-shard completion reports carry these deltas, so their sum
// equals the executor's lifetime totals exactly — even when shards fold
// concurrently (attribution to a particular shard is then approximate,
// but the counters are informational, never part of the merge).
func (e *executor) counterDelta() (sim, hits uint64) {
	e.reportMu.Lock()
	defer e.reportMu.Unlock()
	s, h := e.simulated.Load(), e.diskHits.Load()
	sim, hits = s-e.repSim, h-e.repHits
	e.repSim, e.repHits = s, h
	return
}

func newExecutor(g *grid, disk *runcache.Store) *executor {
	return &executor{
		g:      g,
		disk:   disk,
		flight: runcache.NewFlight[scenario.Result](),
	}
}

// shardRange returns run range [lo, hi) of shard s.
func (e *executor) shardRange(s uint64) (lo, hi uint64) {
	size := uint64(e.g.spec.ShardSize)
	lo, hi = s*size, (s+1)*size
	if hi > e.g.total {
		hi = e.g.total
	}
	return lo, hi
}

// nShards is the campaign's spec-derived shard count.
func (e *executor) nShards() uint64 {
	size := uint64(e.g.spec.ShardSize)
	return (e.g.total + size - 1) / size
}

// memoizeKeys fills the key memo from grid.keyAt — one RunKey over a
// compiled base key per run of one replica — when the grid repeats.
// Disjoint index ranges per goroutine, so the fill is race-free and the
// slices are immutable once published by the Once.
func (e *executor) memoizeKeys(jobs int) {
	e.keyOnce.Do(func() {
		rep := e.g.spec.Replicate
		if rep <= 1 {
			return
		}
		if jobs < 1 {
			jobs = 1
		}
		baseN := e.g.total / uint64(rep)
		keys := make([]runcache.Key, baseN)
		keyOK := make([]bool, baseN)
		var wg sync.WaitGroup
		chunk := (baseN + uint64(jobs) - 1) / uint64(jobs)
		for lo := uint64(0); lo < baseN; lo += chunk {
			hi := lo + chunk
			if hi > baseN {
				hi = baseN
			}
			wg.Add(1)
			go func(lo, hi uint64) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					keys[i], keyOK[i] = e.g.keyAt(i)
				}
			}(lo, hi)
		}
		wg.Wait()
		e.keys, e.keyOK, e.baseN = keys, keyOK, baseN
	})
}

// keyAt returns run i's cache key: from the memo when the grid
// repeats, else grid.keyAt's one RunKey over the compiled base key.
func (e *executor) keyAt(i uint64) (runcache.Key, bool) {
	if e.keys != nil {
		b := i % e.baseN
		return e.keys[b], e.keyOK[b]
	}
	return e.g.keyAt(i)
}

// foldShard folds runs [lo, hi) of shard s into a fresh shard aggregate
// in index order. onRun fires after each folded run (progress
// accounting); stop is polled between runs and, when it fires, foldShard
// returns (nil, nil) — deliver nothing, the shard stays unfinished. A
// panic anywhere in a run (engine bug, poisoned flight) converts to an
// error rather than crashing the process.
func (e *executor) foldShard(s uint64, stop func() bool, onRun func()) (a *agg, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			a, err = nil, fmt.Errorf("campaign: run panicked in shard %d: %v", s, pv)
		}
	}()
	e.memoizeKeys(runtime.GOMAXPROCS(0))
	lo, hi := e.shardRange(s)
	a = newAgg(e.g.cells())
	for i := lo; i < hi; i++ {
		if stop != nil && stop() {
			return nil, nil
		}
		res, err := e.oneRun(i)
		if err != nil {
			return nil, err
		}
		a.add(e.g.cellAt(i), &res)
		if onRun != nil {
			onRun()
		}
	}
	return a, nil
}

// oneRun produces run i's result: disk hit, collapsed duplicate, or a
// fresh simulation (persisted before returning). On the replay path a
// run is one RunKey hash (or a memo read), a disk read, and a decode.
func (e *executor) oneRun(i uint64) (scenario.Result, error) {
	sim := func() scenario.Result {
		sc, proto, seed, _ := e.g.runAt(i)
		e.simulated.Add(1)
		return scenario.Run(sc, proto, scenario.Opts{Seed: seed})
	}
	key, ok := e.keyAt(i)
	if !ok {
		// Library scenarios are always digestible; this is a belt for
		// future scenario kinds, not a hot path.
		return sim(), nil
	}
	var runErr error
	res := e.flight.Do(key, func() scenario.Result {
		if e.disk != nil {
			if b, hit, derr := e.disk.Get(key); derr != nil {
				runErr = derr
				return scenario.Result{}
			} else if hit {
				if r, cerr := decodeResult(b); cerr == nil {
					e.diskHits.Add(1)
					return r
				}
				// Version/layout mismatch: treat as a miss and
				// re-simulate. Put below is a first-write-wins no-op,
				// so the stale record stays until a cache rebuild.
			}
		}
		r := sim()
		if e.disk != nil {
			if perr := e.disk.Put(key, encodeResult(r)); perr != nil {
				runErr = perr
			}
		}
		return r
	})
	return res, runErr
}

// Job executes one campaign: a sharded sweep of the spec's run grid
// into streaming aggregators, memoized through the optional disk
// store. Create with New, drive with Execute, observe with Progress.
// When the job runs behind a serve-mode coordinator, remote workers
// lease shards through Lease/RenewLease and return aggregates through
// CompleteShard; the coordinator's own Execute workers pull from the
// same lease table, so it is simply worker #0.
type Job struct {
	g    *grid
	id   string
	opts Options
	exec *executor

	leases *leaseTable

	runsDone   atomic.Uint64
	remoteRuns atomic.Uint64
	remoteSim  atomic.Uint64
	remoteHits atomic.Uint64

	cancelCh   chan struct{}
	cancelOnce sync.Once

	mu        sync.Mutex
	status    Status
	err       error
	total     *agg            // contiguous merged prefix
	pending   map[uint64]*agg // out-of-order shards awaiting merge
	nextMerge uint64
	result    []byte // canonical aggregate bytes, set on done
}

// New compiles the spec into a runnable job. The spec is validated and
// normalised; the returned job is in StatusQueued.
func New(spec Spec, opts Options) (*Job, error) {
	g, err := compile(spec)
	if err != nil {
		return nil, err
	}
	id, err := g.spec.ID()
	if err != nil {
		return nil, err
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	exec := newExecutor(g, opts.Disk)
	return &Job{
		g:        g,
		id:       id,
		opts:     opts,
		exec:     exec,
		leases:   newLeaseTable(exec.nShards(), opts.LeaseTTL, opts.now),
		cancelCh: make(chan struct{}),
		status:   StatusQueued,
		total:    newAgg(g.cells()),
		pending:  make(map[uint64]*agg),
	}, nil
}

// ID returns the campaign's digest-derived identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the normalised spec.
func (j *Job) Spec() Spec { return j.g.spec }

// Cancel requests the job stop at the next run boundary. Completed
// shards stay merged and every simulated result is already on disk, so
// a resubmission resumes from the cache. Safe to call at any time, any
// number of times.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
}

func (j *Job) cancelled() bool {
	select {
	case <-j.cancelCh:
		return true
	default:
		return false
	}
}

// leaseWait is how long an idle local worker sleeps when every
// remaining shard is leased out (to remote workers or to its siblings)
// before re-checking for expiries and completions.
const leaseWait = 2 * time.Millisecond

// Execute runs the campaign to completion (or cancellation/failure)
// and returns its terminal error, if any. It is the caller's single
// blocking drive call; the server wraps it in a goroutine. Local
// workers pull shards from the same lease table remote workers do, so
// a job with no remote workers behaves exactly as before — and with
// remote workers, Execute returns once every shard (whoever computed
// it) has merged.
func (j *Job) Execute() error {
	j.mu.Lock()
	if j.status != StatusQueued {
		st := j.status
		j.mu.Unlock()
		return fmt.Errorf("campaign: job %s already %s", j.id, st)
	}
	j.status = StatusRunning
	j.mu.Unlock()

	nShards := j.exec.nShards()
	j.exec.memoizeKeys(j.opts.Jobs)

	if !j.opts.NoLocalExec {
		var wg sync.WaitGroup
		for w := 0; w < j.opts.Jobs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				j.localWorker(fmt.Sprintf("local/%d", w))
			}(w)
		}
		wg.Wait()
	}

	// Wait out the remote tail: in coordinator-only mode this is the
	// whole campaign; otherwise remote completions mark a shard done in
	// the lease table a moment before the merge lands, and this drains
	// that window so the terminal check below sees the final state.
	for !j.cancelled() && !j.failed() && (!j.leases.allDone() || !j.merged(nShards)) {
		time.Sleep(leaseWait)
	}

	// Flush the disk store in every terminal state: a cancelled (or
	// failed) campaign's simulated results are its resume state.
	if serr := j.opts.Disk.Sync(); serr != nil {
		j.fail(fmt.Errorf("campaign: disk sync: %w", serr))
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.err != nil:
		j.status = StatusFailed
		return j.err
	case j.cancelled():
		j.status = StatusCancelled
		return nil
	}
	if j.nextMerge != nShards {
		j.status = StatusFailed
		j.err = fmt.Errorf("campaign: merged %d of %d shards", j.nextMerge, nShards)
		return j.err
	}
	ag, err := j.g.aggregates(j.total)
	if err == nil {
		j.result, err = ag.MarshalCanonical()
	}
	if err != nil {
		j.status = StatusFailed
		j.err = err
		return err
	}
	j.status = StatusDone
	return nil
}

// localWorker is one coordinator-side execution loop: lease a shard,
// fold it, complete it, repeat — waiting out windows where every
// remaining shard is leased to someone else (a remote worker may die
// and its lease expire back to us).
func (j *Job) localWorker(name string) {
	for {
		if j.cancelled() || j.failed() {
			return
		}
		s, token, ok := j.leases.acquire(name)
		if !ok {
			if j.leases.allDone() {
				return
			}
			select {
			case <-j.cancelCh:
				return
			case <-time.After(leaseWait):
			}
			continue
		}
		a, err := j.exec.foldShard(s, func() bool { return j.cancelled() || j.failed() },
			func() { j.runsDone.Add(1) })
		if err != nil {
			j.fail(err)
			return
		}
		if a == nil { // stopped mid-shard
			j.leases.release(s, token)
			return
		}
		if dup := j.leases.complete(s); !dup {
			j.deliver(s, a)
		}
	}
}

func (j *Job) merged(nShards uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextMerge == nShards
}

func (j *Job) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err != nil
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	j.Cancel() // stop sibling workers promptly
}

// running reports whether the job accepts lease traffic.
func (j *Job) running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusRunning
}

// Lease grants the caller (a remote worker) one shard, or ok=false when
// nothing is currently available. gone is true once the job is not
// running — the worker should stop polling this campaign.
func (j *Job) Lease(worker string) (g LeaseGrant, ok, gone bool) {
	if !j.running() || j.cancelled() {
		return LeaseGrant{}, false, true
	}
	s, token, ok := j.leases.acquire(worker)
	if !ok {
		return LeaseGrant{}, false, false
	}
	lo, hi := j.exec.shardRange(s)
	ttl := j.opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return LeaseGrant{
		Campaign: j.id,
		Shard:    s,
		Lo:       lo,
		Hi:       hi,
		Token:    token,
		TTLMs:    ttl.Milliseconds(),
	}, true, false
}

// RenewLease extends a worker's hold on a shard (the heartbeat). False
// means the lease was lost — expired and reassigned, or completed by
// someone else.
func (j *Job) RenewLease(shard uint64, token string) bool {
	if !j.running() || j.cancelled() {
		return false
	}
	return j.leases.renew(shard, token)
}

// CompleteShard folds a remotely-computed shard aggregate into the
// campaign. The first completion of a shard wins — regardless of lease
// state, since the bytes are a pure function of the spec — and every
// later one reports dup=true and is dropped. gone is true when the job
// no longer accepts results.
func (j *Job) CompleteShard(rep shardReport) (dup, gone bool) {
	if !j.running() || j.cancelled() {
		return false, true
	}
	if dup := j.leases.complete(rep.shard); dup {
		return true, false
	}
	j.deliver(rep.shard, rep.agg)
	lo, hi := j.exec.shardRange(rep.shard)
	j.runsDone.Add(hi - lo)
	j.remoteRuns.Add(hi - lo)
	j.remoteSim.Add(rep.simulated)
	j.remoteHits.Add(rep.diskHits)
	return false, false
}

// deliver merges shard s's aggregate into the running total the moment
// it becomes the next contiguous shard; earlier arrivals park in
// pending. Merge order is therefore always 0,1,2,… regardless of
// which worker finished when — the whole byte-identical-at-any-shape
// guarantee lives in this function. Pending stays bounded by the
// out-of-order window (locally ~Jobs entries; with remote workers, at
// most the outstanding-lease spread), and holds fixed-size aggregates
// only — never per-run results.
func (j *Job) deliver(s uint64, a *agg) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending[s] = a
	for {
		nxt, ok := j.pending[j.nextMerge]
		if !ok {
			return
		}
		delete(j.pending, j.nextMerge)
		j.total.merge(nxt)
		j.nextMerge++
	}
}

// Progress snapshots the job. The aggregate snapshot covers the merged
// contiguous prefix, so its numbers are exact for the runs they count.
func (j *Job) Progress() Progress {
	done := j.runsDone.Load()
	sim := j.exec.simulated.Load() + j.remoteSim.Load()
	ls := j.leases.state()
	p := Progress{
		ID:         j.id,
		Name:       j.g.spec.Name,
		TotalRuns:  j.g.total,
		RunsDone:   done,
		Simulated:  sim,
		DiskHits:   j.exec.diskHits.Load() + j.remoteHits.Load(),
		RemoteRuns: j.remoteRuns.Load(),
		Leases:     &ls,
	}
	if done > 0 {
		p.HitRate = 1 - float64(sim)/float64(done)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p.Status = j.status
	if j.err != nil {
		p.Error = j.err.Error()
	}
	if ag, err := j.g.aggregates(j.total); err == nil {
		p.Aggregates = &ag
	}
	return p
}

// Result returns the canonical aggregate bytes; ok is false until the
// job reaches StatusDone.
func (j *Job) Result() (b []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.status == StatusDone
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
