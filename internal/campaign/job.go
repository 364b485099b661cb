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

	// now overrides the lease clock in tests.
	now func() time.Time
	// noLocalExec makes Execute a pure coordinator in tests: it spawns
	// no local folding workers, so every shard must arrive through the
	// lease protocol (CompleteShard).
	noLocalExec bool
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
	// them; the rest were disk hits.
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
// owns one executor per campaign, with its own disk store and key memo.
// The grid's compiled scenarios and base keys are read-only, so the
// executor's goroutines share them: no run assembles a scenario or
// re-encodes one for its key.
type executor struct {
	g    *grid
	disk *runcache.Store

	// keys memoizes the cache keys of the base grid's first maxMemoRuns
	// runs when Replicate > 1: replica r of base run b shares b's key,
	// so a replayed replica of a memoized run costs a slice read instead
	// of grid.keyAt's scenario.RunKey hash; base runs past the memo key
	// through grid.keyAt. base is the base grid's run count. The first
	// foldShard fills both; read-only after.
	keyOnce sync.Once
	keys    []runcache.Key
	base    uint64

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
	return &executor{g: g, disk: disk}
}

// shardRange returns run range [lo, hi) of shard s. Neither bound
// overflows, even for a grid of nearly 2^64 runs.
func (e *executor) shardRange(s uint64) (lo, hi uint64) {
	size := uint64(e.g.spec.ShardSize)
	lo, hi = s*size, e.g.total
	if lo < hi && hi-lo > size {
		hi = lo + size
	}
	return lo, hi
}

// nShards is the campaign's spec-derived shard count. A validated grid
// has at least one run, so total−1 does not wrap (total+size−1 could).
func (e *executor) nShards() uint64 {
	return (e.g.total-1)/uint64(e.g.spec.ShardSize) + 1
}

// maxMemoRuns bounds the key memo at 2 MB of keys (32 B each), which
// fill in ~17 ms ahead of every local worker's first shard; DESIGN
// §4.12 has the measurements behind the bound.
const maxMemoRuns = 1 << 16

// memoizeKeys fills the key memo from grid.keyAt — one RunKey over a
// compiled base key per run — for the first maxMemoRuns runs of one
// replica when the grid repeats. The memo is immutable once published
// by the Once.
func (e *executor) memoizeKeys() {
	e.keyOnce.Do(func() {
		rep := uint64(e.g.spec.Replicate)
		if rep == 1 {
			return
		}
		base := e.g.total / rep
		keys := make([]runcache.Key, min(base, maxMemoRuns))
		for i := range keys {
			keys[i] = e.g.keyAt(uint64(i))
		}
		e.keys, e.base = keys, base
	})
}

// keyAt returns run i's cache key: from the memo when it holds i's base
// run, else grid.keyAt's one RunKey over the compiled base key.
func (e *executor) keyAt(i uint64) runcache.Key {
	if e.keys != nil {
		if b := i % e.base; b < uint64(len(e.keys)) {
			return e.keys[b]
		}
	}
	return e.g.keyAt(i)
}

// foldShard folds runs [lo, hi) of shard s into a fresh shard aggregate
// in index order, reading the store through a Reader of its own. onRun
// fires after each folded run (progress accounting); stop is polled
// between runs and, when it fires, foldShard returns (nil, nil) —
// complete nothing. A panic anywhere in a run or in the key memo's fill
// (an engine bug) converts to an error rather than crashing the
// process.
func (e *executor) foldShard(s uint64, stop func() bool, onRun func()) (a *agg, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			a, err = nil, fmt.Errorf("campaign: run panicked in shard %d: %v", s, pv)
		}
	}()
	e.memoizeKeys()
	lo, hi := e.shardRange(s)
	a = newAgg(e.g.cells())
	rd := e.disk.NewReader()
	for i := lo; i < hi; i++ {
		if stop != nil && stop() {
			return nil, nil
		}
		res, err := e.oneRun(i, rd)
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

// oneRun produces run i's result: a disk hit read through rd, or a
// fresh simulation stored before returning. On the replay path a run is
// one RunKey hash (or a memo read), a read from rd's block, and a
// decode. Replicas dedupe through the store alone: a replica folded
// while its original is still simulating elsewhere simulates again, to
// identical bytes, and its Put is a no-op.
func (e *executor) oneRun(i uint64, rd *runcache.Reader) (scenario.Result, error) {
	key := e.keyAt(i)
	b, hit, err := rd.Get(key)
	if err != nil {
		return scenario.Result{}, err
	}
	if hit {
		if r, err := decodeResult(b); err == nil {
			e.diskHits.Add(1)
			return r, nil
		}
		// Version/layout mismatch: treat as a miss and re-simulate.
		// Put below is a first-write-wins no-op, so the stale record
		// stays until a cache rebuild.
	}
	sc, proto, seed, _ := e.g.runAt(i)
	e.simulated.Add(1)
	r := scenario.Run(sc, proto, scenario.Opts{Seed: seed})
	if e.disk != nil {
		err = e.disk.Put(key, encodeResult(r))
	}
	return r, err
}

// Job executes one campaign: a sharded sweep of the spec's run grid
// into streaming aggregators, memoized through the optional disk
// store. Create with New, drive with Execute, observe with Progress.
// When the job runs behind a serve-mode coordinator, remote workers
// lease shards through Lease/RenewLease and return aggregates through
// CompleteShard; the coordinator's own Execute workers take shards from
// the same lease table without leasing them.
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

	mu     sync.Mutex
	status Status
	err    error
	result []byte // canonical aggregate bytes, set on done
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
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	exec := newExecutor(g, opts.Disk)
	return &Job{
		g:        g,
		id:       id,
		opts:     opts,
		exec:     exec,
		leases:   newLeaseTable(exec.nShards(), g.cells(), opts.LeaseTTL, opts.now),
		cancelCh: make(chan struct{}),
		status:   StatusQueued,
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
// remaining shard is leased out or being folded by a sibling before
// re-checking for expiries.
const leaseWait = 2 * time.Millisecond

// Execute runs the campaign to completion (or cancellation/failure)
// and returns its terminal error, if any. It is the caller's single
// blocking drive call; the server wraps it in a goroutine. Local
// workers take shards from the same lease table remote workers lease
// from, so with remote workers Execute returns once every shard
// (whoever computed it) has merged. A panic in Execute or in a local
// worker fails the job with the panic's text instead of ending the
// process.
func (j *Job) Execute() error {
	j.mu.Lock()
	if j.status != StatusQueued {
		st := j.status
		j.mu.Unlock()
		return fmt.Errorf("campaign: job %s already %s", j.id, st)
	}
	j.status = StatusRunning
	j.mu.Unlock()

	result := j.run()
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.err != nil:
		j.status = StatusFailed
	case j.cancelled():
		j.status = StatusCancelled
	default:
		j.status, j.result = StatusDone, result
	}
	return j.err
}

// run drives the local workers until the lease table's last shard
// merges or the job is cancelled, and returns the canonical aggregate
// bytes, or nil if the job stopped first.
func (j *Job) run() []byte {
	defer j.recoverPanic()
	var wg sync.WaitGroup
	for w := 0; w < j.opts.Jobs && !j.opts.noLocalExec; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer j.recoverPanic()
			j.localWorker()
		}()
	}
	select {
	case <-j.leases.finished:
	case <-j.cancelCh:
	}
	wg.Wait()

	// Flush the disk store in every terminal state: a cancelled (or
	// failed) campaign's simulated results are its resume state.
	if err := j.opts.Disk.Sync(); err != nil {
		j.fail(fmt.Errorf("campaign: disk sync: %w", err))
		return nil
	}
	if j.cancelled() {
		return nil
	}
	ag, err := j.leases.aggregates(j.g)
	var b []byte
	if err == nil {
		b, err = ag.MarshalCanonical()
	}
	if err != nil {
		j.fail(err)
	}
	return b
}

// recoverPanic, deferred, turns a panic into the job's failure.
func (j *Job) recoverPanic() {
	if pv := recover(); pv != nil {
		j.fail(fmt.Errorf("campaign: job %s panicked: %v", j.id, pv))
	}
}

// localWorker is one coordinator-side execution loop: take a shard,
// fold it, complete it, repeat — waiting out windows where every
// remaining shard is leased to someone else (a remote worker may die
// and its lease expire back to us). A taken shard holds no lease, so no
// TTL can hand it to a remote worker mid-fold. A fold stops early on
// cancellation, after which nothing takes or leases again, or when the
// shard completes elsewhere: a remote worker whose lease expired before
// the shard came here may still complete it first. The runs such a fold
// counted come off runsDone before the worker moves on, and so before
// Execute settles.
func (j *Job) localWorker() {
	for !j.cancelled() {
		s, done, ok := j.leases.take()
		if !ok {
			select {
			case <-j.cancelCh:
				return
			case <-j.leases.finished:
				return
			case <-time.After(leaseWait):
			}
			continue
		}
		var counted uint64
		a, err := j.exec.foldShard(s,
			func() bool { return done.Load() || j.cancelled() },
			func() { counted++; j.runsDone.Add(1) })
		if err != nil {
			j.fail(err)
			return
		}
		if a == nil && !done.Load() { // cancelled mid-shard
			return
		}
		if a == nil || j.leases.complete(s, a) { // completed elsewhere
			j.runsDone.Add(-counted)
		}
	}
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
// nothing is available: every remaining shard is done, leased or being
// folded, or the job is not running.
func (j *Job) Lease(worker string) (g LeaseGrant, ok bool) {
	if !j.running() || j.cancelled() {
		return LeaseGrant{}, false
	}
	s, token, ok := j.leases.acquire(worker)
	if !ok {
		return LeaseGrant{}, false
	}
	lo, hi := j.exec.shardRange(s)
	return LeaseGrant{
		Campaign:     j.id,
		Shard:        s,
		Lo:           lo,
		Hi:           hi,
		Token:        token,
		TTLMs:        j.opts.LeaseTTL.Milliseconds(),
		ModelVersion: scenario.KeyVersion,
	}, true
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
// no longer accepts results. It holds mu throughout, so Execute, which
// settles the terminal state under mu, never publishes it between the
// last shard's merge and its run counts.
func (j *Job) CompleteShard(rep shardReport) (dup, gone bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusRunning || j.cancelled() {
		return false, true
	}
	if j.leases.complete(rep.shard, rep.agg) {
		return true, false
	}
	lo, hi := j.exec.shardRange(rep.shard)
	j.runsDone.Add(hi - lo)
	j.remoteRuns.Add(hi - lo)
	j.remoteSim.Add(rep.simulated)
	j.remoteHits.Add(rep.diskHits)
	return false, false
}

// Progress snapshots the job. The aggregate snapshot covers the merged
// contiguous prefix, so its numbers are exact for the runs they count.
func (j *Job) Progress() Progress {
	p := j.summary()
	if ag, err := j.leases.aggregates(j.g); err == nil {
		p.Aggregates = &ag
	}
	return p
}

// summary is Progress without the aggregate snapshot: counters, status
// and lease state, with no digest or distribution computed. It reads
// the status before the counters: a local run is counted before its
// shard completes and a remote shard's runs under mu, both before
// Execute settles the status under mu, so a summary that says done
// carries the final counts.
func (j *Job) summary() Progress {
	p := Progress{ID: j.id, Name: j.g.spec.Name, TotalRuns: j.g.total}
	j.mu.Lock()
	p.Status = j.status
	if j.err != nil {
		p.Error = j.err.Error()
	}
	j.mu.Unlock()
	ls := j.leases.state()
	p.RunsDone = j.runsDone.Load()
	p.Simulated = j.exec.simulated.Load() + j.remoteSim.Load()
	p.DiskHits = j.exec.diskHits.Load() + j.remoteHits.Load()
	p.RemoteRuns = j.remoteRuns.Load()
	p.Leases = &ls
	if p.RunsDone > 0 {
		p.HitRate = 1 - float64(p.Simulated)/float64(p.RunsDone)
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
