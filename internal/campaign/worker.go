package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runcache"
	"repro/internal/scenario"
)

// Worker is the pull side of the shard-lease protocol: a process (or an
// in-process test fixture) that leases shards of the coordinator's
// running campaign, executes them against its own disk store, and
// streams the bit-exact shard aggregates back. Workers are
// stateless from the coordinator's point of view: one can join
// mid-campaign, die mid-shard (the lease expires and the shard
// reassigns), or race another worker to a completion (first write
// wins) without perturbing the output bytes.
type Worker struct {
	opts    WorkerOptions
	client  *http.Client
	baseURL string

	// lastID and last cache the campaign this worker compiled last:
	// the coordinator runs one campaign at a time.
	mu     sync.Mutex
	lastID string
	last   *executor

	// ShardsDone / Duplicates / LeasesLost count this worker's
	// lifetime outcomes, for logging and tests. Refused counts lease
	// requests and grants turned down because the coordinator runs
	// another model version.
	ShardsDone atomic.Uint64
	Duplicates atomic.Uint64
	LeasesLost atomic.Uint64
	Refused    atomic.Uint64
}

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://host:8080"). Required.
	Coordinator string
	// Token is the bearer token when the coordinator requires auth.
	Token string
	// Disk is this worker's local result cache. Optional but strongly
	// recommended: it is what makes a rejoined worker fast. Workers
	// must not share a cache directory with each other or with the
	// coordinator (the store is single-process).
	Disk *runcache.Store
	// Jobs is how many shards this worker executes concurrently
	// (default 1; each shard already folds serially by design).
	Jobs int
	// PollInterval is the idle wait between lease attempts when the
	// coordinator has nothing for us (default 500ms).
	PollInterval time.Duration
	// Name identifies this worker in lease state (default host/pid).
	Name string
	// Client overrides the HTTP client (tests inject an
	// httptest-backed one).
	Client *http.Client
	// Logf, when set, receives progress lines (the CLI wires log.Printf).
	Logf func(format string, args ...any)

	// modelVersion overrides the scenario.KeyVersion this worker
	// announces and stamps on its shard frames, so tests can play a
	// worker built from another model.
	modelVersion int
}

// NewWorker builds a worker. Run drives it.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("campaign: worker needs a coordinator URL")
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.modelVersion == 0 {
		opts.modelVersion = scenario.KeyVersion
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		opts:    opts,
		client:  client,
		baseURL: opts.Coordinator,
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run polls and executes until ctx is cancelled. Transport errors back
// off exponentially (100ms doubling to 5s) and never kill the worker:
// a coordinator restart just looks like a long backoff. Run returns
// ctx.Err() on cancellation.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < w.opts.Jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// loop is one lease-execute-complete cycle runner. It folds every
// shard through one Reader of the worker's store.
func (w *Worker) loop(ctx context.Context) {
	rd := w.opts.Disk.NewReader()
	backoff := backoffMin
	for ctx.Err() == nil {
		worked, err := w.once(ctx, rd)
		switch {
		case err != nil:
			w.logf("worker: %v (retrying in %v)", err, backoff)
			sleepCtx(ctx, backoff)
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		case !worked:
			backoff = backoffMin
			sleepCtx(ctx, w.opts.PollInterval)
		default:
			backoff = backoffMin
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// once tries to lease and execute one shard of the coordinator's
// running campaign, reading the worker's store through rd.
// worked=false means the coordinator had nothing for us.
func (w *Worker) once(ctx context.Context, rd *runcache.Reader) (worked bool, err error) {
	g, ok, err := w.lease(ctx)
	if err != nil || !ok {
		return false, err
	}
	if g.ModelVersion != w.opts.modelVersion {
		// A coordinator that grants without checking the version:
		// refuse before simulating. The lease expires unrenewed.
		w.Refused.Add(1)
		return true, fmt.Errorf("campaign: %s shard %d granted under model version %d, this worker runs %d",
			g.Campaign, g.Shard, g.ModelVersion, w.opts.modelVersion)
	}
	return true, w.executeShard(ctx, g, rd)
}

// executorFor compiles the campaign's normalised spec into this
// worker's executor — same grid, same shard bounds, same cache keys as
// the coordinator's, by construction — unless it is the campaign the
// worker compiled last.
func (w *Worker) executorFor(ctx context.Context, id string) (*executor, error) {
	w.mu.Lock()
	e := w.last
	if w.lastID != id {
		e = nil
	}
	w.mu.Unlock()
	if e != nil {
		return e, nil
	}
	var spec Spec
	if err := w.getJSON(ctx, "/campaigns/"+id+"/spec", &spec); err != nil {
		return nil, err
	}
	g, err := compile(spec)
	if err != nil {
		return nil, fmt.Errorf("campaign: compiling spec for %s: %w", id, err)
	}
	gotID, err := g.spec.ID()
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("campaign: coordinator spec for %s compiles to id %s", id, gotID)
	}
	e = newExecutor(g, w.opts.Disk)
	w.mu.Lock()
	if w.lastID == id {
		e = w.last // another loop won the compile race
	} else {
		w.lastID, w.last = id, e
	}
	w.mu.Unlock()
	return e, nil
}

// lease asks the coordinator for one shard of its running campaign,
// announcing this worker's model version. ok=false means nothing is
// available. A coordinator running another model answers 409, which is
// an error: the worker backs off and never simulates for it.
func (w *Worker) lease(ctx context.Context) (g LeaseGrant, ok bool, err error) {
	q := url.Values{"worker": {w.opts.Name}, "model_version": {strconv.Itoa(w.opts.modelVersion)}}
	req, err := w.newRequest(ctx, http.MethodPost, "/lease?"+q.Encode(), nil)
	if err != nil {
		return g, false, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return g, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			return g, false, fmt.Errorf("campaign: decoding lease grant: %w", err)
		}
		return g, true, nil
	case http.StatusNoContent:
		return g, false, nil
	case http.StatusConflict:
		w.Refused.Add(1)
		fallthrough
	default:
		return g, false, httpError("lease", resp)
	}
}

// executeShard folds the leased shard locally through rd, heartbeating
// the lease at TTL/3, and posts the fold's report: the aggregate with
// its run, simulation and disk-hit counts. A lost lease
// (coordinator says 410 on renew) aborts the fold — the shard was
// reassigned, finishing it would only produce a duplicate.
func (w *Worker) executeShard(ctx context.Context, g LeaseGrant, rd *runcache.Reader) error {
	id := g.Campaign
	e, err := w.executorFor(ctx, id)
	if err != nil {
		return err
	}
	if g.Shard >= e.nShards() {
		return fmt.Errorf("campaign: leased shard %d of %d", g.Shard, e.nShards())
	}

	var lost atomic.Bool
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	ttl := time.Duration(g.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if !w.renew(hbCtx, id, g) {
					lost.Store(true)
					return
				}
			}
		}
	}()

	rep, err := e.foldShard(g.Shard, rd, func() bool { return ctx.Err() != nil || lost.Load() })
	stopHB()
	hbWG.Wait()
	if err != nil {
		return err
	}
	if rep.agg == nil { // aborted: ctx cancelled or lease lost
		if lost.Load() {
			w.LeasesLost.Add(1)
			w.logf("worker: lost lease on %s shard %d, abandoning", id, g.Shard)
			return nil
		}
		return ctx.Err()
	}

	digest, err := e.g.spec.Digest()
	if err != nil {
		return err
	}
	body := encodeShardAgg(byte(w.opts.modelVersion), digest, rep.shard, rep.runs, rep.simulated, rep.diskHits, rep.agg)
	return w.postShard(ctx, id, g, body)
}

// renew heartbeats the lease; false means it is lost. Transport errors
// do NOT lose the lease — the coordinator may be briefly unreachable
// while the TTL is still running.
func (w *Worker) renew(ctx context.Context, id string, g LeaseGrant) bool {
	path := fmt.Sprintf("/campaigns/%s/shards/%d/renew", id, g.Shard)
	req, err := w.newRequest(ctx, http.MethodPost, path, nil)
	if err != nil {
		return true
	}
	req.Header.Set("X-Lease-Token", g.Token)
	resp, err := w.client.Do(req)
	if err != nil {
		return true
	}
	defer drain(resp)
	return resp.StatusCode != http.StatusGone
}

// postShard uploads the completion, retrying transport failures with
// backoff while the lease TTL allows. 4xx/410 are terminal for this
// shard: the work is abandoned (and will reassign if it didn't land).
func (w *Worker) postShard(ctx context.Context, id string, g LeaseGrant, body []byte) error {
	path := fmt.Sprintf("/campaigns/%s/shards/%d", id, g.Shard)
	backoff := backoffMin
	for attempt := 0; ; attempt++ {
		req, err := w.newRequest(ctx, http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("X-Lease-Token", g.Token)
		resp, err := w.client.Do(req)
		if err != nil {
			if attempt >= 5 || ctx.Err() != nil {
				return fmt.Errorf("campaign: posting shard %d: %w", g.Shard, err)
			}
			sleepCtx(ctx, backoff)
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		func() {
			defer drain(resp)
			switch resp.StatusCode {
			case http.StatusOK:
				var ack struct {
					Status string `json:"status"`
				}
				json.NewDecoder(resp.Body).Decode(&ack)
				if ack.Status == "duplicate" {
					w.Duplicates.Add(1)
					w.logf("worker: shard %d of %s was a duplicate", g.Shard, id)
				} else {
					w.ShardsDone.Add(1)
				}
				err = nil
			case http.StatusGone:
				w.LeasesLost.Add(1)
				err = nil // campaign finished without us; fine
			default:
				err = httpError("shard post", resp)
			}
		}()
		return err
	}
}

func (w *Worker) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if w.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.Token)
	}
	return req, nil
}

func (w *Worker) getJSON(ctx context.Context, path string, v any) error {
	req, err := w.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return httpError("GET "+path, resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain finishes and closes a response body so the connection is
// reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func httpError(what string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("campaign: %s: coordinator answered %s: %s", what, resp.Status, bytes.TrimSpace(b))
}
