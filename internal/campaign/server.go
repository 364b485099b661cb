package campaign

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"

	"repro/internal/scenario"
)

// Server is the campaign control plane behind `emptcpsim serve`: an
// HTTP+JSON API to submit campaigns, watch their streaming progress,
// fetch canonical aggregates, and cancel. Campaigns are identified by
// spec digest, so submission is idempotent: re-posting a spec attaches
// to the existing job (or, after a failure or cancellation, starts a
// fresh one that resumes from the disk cache). The server remembers
// every queued and running campaign but only the maxFinished most
// recently finished ones: an older id answers 404, and resubmitting its
// spec starts a fresh job that replays from the disk cache.
//
// The server is also the distributed coordinator: remote `emptcpsim
// worker` processes lease shards of the running campaign, execute them
// with their own full local stack, and stream the aggregates back. The
// coordinator's own execution workers take shards from the same lease
// table, so a serve-mode process with no workers attached behaves
// exactly like the single-process CLI.
//
//	POST /campaigns                   submit a Spec        → 202 Progress / 400 / 413 / 503
//	GET  /campaigns                   list                 → 200 [Progress]
//	GET  /campaigns/{id}              status + snapshot    → 200 Progress
//	GET  /campaigns/{id}/spec         normalised spec      → 200 Spec
//	GET  /campaigns/{id}/result       canonical aggregates → 200 JSON / 409 Progress
//	POST /campaigns/{id}/cancel                            → 202 Progress
//	POST /lease                       lease one shard      → 200 LeaseGrant / 204 / 409
//	POST /campaigns/{id}/shards/{s}   complete a shard     → 200 {status} / 409 / 410
//	POST /campaigns/{id}/shards/{s}/renew heartbeat        → 200 {ttl_ms} / 410
//	GET  /statz                       process + lease stats → 200 JSON
//	GET  /debug/pprof/*               live profiling
//	GET  /healthz                                          → 200 ok (never authed)
type Server struct {
	opts  Options
	token string // optional bearer token; empty = open

	mu       sync.Mutex
	byID     map[string]*Job
	order    []string // submission order, for stable listings
	running  *Job     // the job dispatch started last; remote workers lease from it
	finished []*Job   // jobs dispatch saw end, oldest first; at most maxFinished
	queue    chan *Job
	closed   bool
	wg       sync.WaitGroup
}

// NewServerOpts builds a server executing campaigns one at a time
// (each job already parallelises across cores) with the given execution
// options, which every submitted campaign shares.
func NewServerOpts(opts Options) *Server {
	s := &Server{
		opts: opts,
		byID: make(map[string]*Job),
		// Submissions never block: a full queue answers 503. The
		// dispatcher drains it FIFO.
		queue: make(chan *Job, maxQueued),
	}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// SetAuthToken requires `Authorization: Bearer <token>` on every route
// except /healthz. Call before Handler; an empty token leaves the
// server open (the default, for localhost use).
func (s *Server) SetAuthToken(token string) { s.token = token }

// maxFinished bounds how many finished (done, failed or cancelled)
// campaigns the server remembers. Each keeps its compiled grid and
// running totals, ~0.5 MB at the largest valid spec.
const maxFinished = 32

// maxQueued bounds the campaigns waiting behind the running one; a
// submit past it gets 503 and leaves nothing behind. A queued job holds
// its compiled grid and its lease table's running totals until dispatch
// reaches it: 0.47 MB of live heap at the largest valid spec, about half
// of it the 1,792-cell aggregate at 144 B a cell. So the queue pins at
// most about 30 MB.
const maxQueued = 64

// dispatch runs queued jobs sequentially. Sequential execution keeps
// the memory envelope at one campaign's worth and makes progress
// reporting honest (a queued campaign reports queued, not starved).
func (s *Server) dispatch() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		s.running = job
		s.mu.Unlock()
		job.Execute() // terminal state and error live on the job
		s.retire(job)
	}
}

// retire records that job ended and forgets the oldest finished job
// beyond maxFinished, unless a resubmission has already replaced it.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job)
	if len(s.finished) <= maxFinished {
		return
	}
	old := s.finished[0]
	s.finished = slices.Delete(s.finished, 0, 1)
	if s.byID[old.ID()] == old {
		delete(s.byID, old.ID())
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old.ID() })
	}
}

// Close stops accepting work, cancels the running and queued jobs,
// waits for the dispatcher to drain, and syncs the disk store — the
// graceful-shutdown checkpoint: everything simulated so far is
// durable, so the next server resumes from disk.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.byID {
		j.Cancel()
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	return s.opts.Disk.Sync()
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/spec", s.handleSpec)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /lease", s.handleLease)
	mux.HandleFunc("POST /campaigns/{id}/shards/{shard}", s.handleShard)
	mux.HandleFunc("POST /campaigns/{id}/shards/{shard}/renew", s.handleRenew)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	healthz := func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}
	if s.token == "" {
		mux.HandleFunc("GET /healthz", healthz)
		return mux
	}
	// Auth wraps everything except /healthz, which stays open so load
	// balancers and the smoke scripts can probe liveness tokenless.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", healthz)
	outer.Handle("/", s.requireAuth(mux))
	return outer
}

func (s *Server) requireAuth(next http.Handler) http.Handler {
	want := []byte("Bearer " + s.token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			writeError(w, http.StatusUnauthorized, fmt.Errorf("campaign: missing or bad bearer token"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBody bounds a submitted spec. A spec Validate accepts has no
// repeated list entry and at most maxSizes sizes, a few KB in all, so
// 1 MB is transport sanity.
const maxSpecBody = 1 << 20

// handleSubmit accepts a Spec and queues it. Idempotent by digest: a
// queued/running/done job with the same digest is returned as-is; a
// failed or cancelled one, or one whose cancel is still pending (a
// queued job reports queued until dispatch reaches it), is replaced by
// a fresh job, which resumes from whatever the previous attempt
// persisted. A submission whose 64-bit ID matches an existing campaign
// but whose normalised spec differs is a digest collision — rejected
// with 422 rather than silently coalescing two different campaigns into
// one result. A job is registered only once the queue has taken it, so
// a 503 for a full queue leaves nothing behind.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("campaign: bad spec: %w", err))
		return
	}
	job, err := New(spec, s.opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("campaign: server shutting down"))
		return
	}
	if prev, ok := s.byID[job.ID()]; ok {
		if !sameSpec(prev.Spec(), job.Spec()) {
			s.mu.Unlock()
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("campaign: spec digest collision: id %s already names a different campaign", job.ID()))
			return
		}
		if prev.summary().Status == StatusDone || !prev.cancelled() {
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, prev.Progress())
			return
		}
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("campaign: queue full"))
		return
	}
	if _, ok := s.byID[job.ID()]; !ok {
		s.order = append(s.order, job.ID())
	}
	// A failed or cancelled attempt is replaced; its simulated prefix
	// is on disk.
	s.byID[job.ID()] = job
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, job.Progress())
}

// sameSpec compares two normalised specs by canonical JSON — the same
// bytes the digest is computed over, so "equal" here means "same
// digest preimage", not merely "same truncated ID".
func sameSpec(a, b Spec) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// summaries lists every campaign in submission order without its
// aggregates, so listings stay light.
func (s *Server) summaries() []Progress {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.byID[id])
	}
	s.mu.Unlock()
	out := make([]Progress, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.summary())
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.summaries())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.byID[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Progress())
	}
}

// handleSpec serves the campaign's normalised spec — what a worker
// compiles to reproduce the coordinator's exact grid, shard bounds, and
// cache keys.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Spec())
	}
}

// handleResult serves the stored canonical bytes verbatim — not a
// re-marshal — so every GET of a done campaign returns identical
// bytes, and those bytes diff clean against a `-j 1` reference run.
// An unfinished campaign answers 409 with Retry-After so pollers can
// back off instead of hammering.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if b, ok := j.Result(); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusConflict, j.Progress())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		j.Cancel()
		writeJSON(w, http.StatusAccepted, j.Progress())
	}
}

// handleLease grants the requesting worker one shard of the campaign
// dispatch is running: workers need no campaign listing, since the
// server runs one campaign at a time. 200 carries a LeaseGrant, whose
// Campaign names the spec to fetch; 204 means nothing is available
// right now (no campaign is running, or every remaining shard is done,
// leased or being folded — poll again); 409 means the worker's
// model_version is not this build's scenario.KeyVersion, so its results
// would mix two models into one aggregate, and nothing is granted.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if v := q.Get("model_version"); v != strconv.Itoa(scenario.KeyVersion) {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: worker model version %q, coordinator model version %d", v, scenario.KeyVersion))
		return
	}
	worker := q.Get("worker")
	if worker == "" {
		worker = "remote/" + r.RemoteAddr
	}
	s.mu.Lock()
	j := s.running
	s.mu.Unlock()
	if j != nil {
		if g, ok := j.Lease(worker); ok {
			writeJSON(w, http.StatusOK, g)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxShardBody bounds a shard-completion payload. The real size is
// header + cells×cellAccSize + crc — a few hundred KB at the largest
// plausible grid — so 64 MB is pure transport sanity, not a tuning
// knob.
const maxShardBody = 64 << 20

// handleShard accepts one shard's aggregate bytes from a worker. The
// payload is validated structurally (crc, magic, codec version, cell
// count), then for its model version (409 when it is not this build's
// scenario.KeyVersion), then against the campaign (digest, shard index
// vs URL, the shard's run count and its split into simulated runs and
// disk hits, run counts and moments per cell) before the
// first-write-wins merge. Duplicates are acknowledged as such — the
// worker did nothing wrong, someone else was just faster.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	shard, err := strconv.ParseUint(r.PathValue("shard"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: bad shard index %q", r.PathValue("shard")))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxShardBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: reading shard payload: %w", err))
		return
	}
	if len(body) > maxShardBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("campaign: shard payload exceeds %d bytes", maxShardBody))
		return
	}
	rep, err := decodeShardAgg(body, j.g.cells())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rep.model != scenario.KeyVersion {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: shard %d is from model version %d, coordinator model version %d", shard, rep.model, scenario.KeyVersion))
		return
	}
	spec := j.Spec()
	digest, err := spec.Digest()
	if err != nil || rep.digest != digest {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: shard payload digest does not match campaign %s", j.ID()))
		return
	}
	if rep.shard != shard {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: payload is for shard %d, URL names shard %d", rep.shard, shard))
		return
	}
	if lo, hi := j.exec.shardRange(shard); shard >= j.exec.nShards() || rep.runs != hi-lo {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: shard %d claims %d runs", shard, rep.runs))
		return
	}
	if rep.simulated > rep.runs || rep.diskHits != rep.runs-rep.simulated {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: shard %d counts %d simulated and %d disk hits of %d runs", shard, rep.simulated, rep.diskHits, rep.runs))
		return
	}
	if err := j.exec.checkShard(shard, rep.agg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dup, gone := j.CompleteShard(rep)
	switch {
	case gone:
		writeError(w, http.StatusGone, fmt.Errorf("campaign: %s is not running", j.ID()))
	case dup:
		writeJSON(w, http.StatusOK, map[string]string{"status": "duplicate"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
	}
}

// handleRenew is the lease heartbeat. 410 tells the worker the lease is
// lost — expired and reassigned, shard completed elsewhere, or campaign
// finished — and the shard should be abandoned without posting.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	shard, err := strconv.ParseUint(r.PathValue("shard"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: bad shard index %q", r.PathValue("shard")))
		return
	}
	token := r.Header.Get("X-Lease-Token")
	if !j.RenewLease(shard, token) {
		writeError(w, http.StatusGone, fmt.Errorf("campaign: lease on shard %d lost", shard))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": j.opts.LeaseTTL.Milliseconds()})
}

// Statz is the process-wide observability snapshot behind GET /statz.
type Statz struct {
	// Cache* mirror runcache.Store.DiskStats and Len: persistent-store
	// lookups, lookup hits, appended records, and resident entries.
	CacheGets    uint64 `json:"cache_gets"`
	CacheHits    uint64 `json:"cache_hits"`
	CachePuts    uint64 `json:"cache_puts"`
	CacheEntries int    `json:"cache_entries"`
	// Campaigns carries each campaign's execution counters and lease
	// table snapshot (aggregates omitted — this is a stats endpoint).
	Campaigns []Progress `json:"campaigns"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	gets, hits, puts := s.opts.Disk.DiskStats()
	writeJSON(w, http.StatusOK, Statz{
		CacheGets:    gets,
		CacheHits:    hits,
		CachePuts:    puts,
		CacheEntries: s.opts.Disk.Len(),
		Campaigns:    s.summaries(),
	})
}
