package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runcache"
)

// Worker is the pull side of the shard-lease protocol: a process (or an
// in-process test fixture) that polls a coordinator for running
// campaigns, leases shards, executes them against its own disk store,
// and streams the bit-exact shard aggregates back. Workers are
// stateless from the coordinator's point of view: one can join
// mid-campaign, die mid-shard (the lease expires and the shard
// reassigns), or race another worker to a completion (first write
// wins) without perturbing the output bytes.
type Worker struct {
	opts    WorkerOptions
	client  *http.Client
	baseURL string

	mu    sync.Mutex
	execs map[string]*executor // compiled campaign cache, by id

	// ShardsDone / Duplicates / LeasesLost count this worker's
	// lifetime outcomes, for logging and tests.
	ShardsDone atomic.Uint64
	Duplicates atomic.Uint64
	LeasesLost atomic.Uint64
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
		execs:   make(map[string]*executor),
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

// loop is one lease-execute-complete cycle runner.
func (w *Worker) loop(ctx context.Context) {
	backoff := backoffMin
	for ctx.Err() == nil {
		worked, err := w.once(ctx)
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

// once tries to lease and execute one shard of some running campaign.
// worked=false means the coordinator had nothing for us.
func (w *Worker) once(ctx context.Context) (worked bool, err error) {
	ids, err := w.runningCampaigns(ctx)
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		g, ok, err := w.lease(ctx, id)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		if err := w.executeShard(ctx, id, g); err != nil {
			return true, err
		}
		return true, nil
	}
	return false, nil
}

// runningCampaigns lists the coordinator's campaigns currently
// accepting leases, in submission order.
func (w *Worker) runningCampaigns(ctx context.Context) ([]string, error) {
	var list []Progress
	if err := w.getJSON(ctx, "/campaigns", &list); err != nil {
		return nil, err
	}
	var ids []string
	for _, p := range list {
		if p.Status == StatusRunning {
			ids = append(ids, p.ID)
		}
	}
	// Evict compiled grids for campaigns that no longer exist or have
	// finished, so a long-lived worker doesn't accumulate them.
	alive := make(map[string]bool, len(ids))
	for _, id := range ids {
		alive[id] = true
	}
	w.mu.Lock()
	for id := range w.execs {
		if !alive[id] {
			delete(w.execs, id)
		}
	}
	w.mu.Unlock()
	return ids, nil
}

// executorFor compiles (once) the campaign's normalised spec into this
// worker's executor — same grid, same shard bounds, same cache keys as
// the coordinator's, by construction.
func (w *Worker) executorFor(ctx context.Context, id string) (*executor, error) {
	w.mu.Lock()
	e := w.execs[id]
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
	if prev := w.execs[id]; prev != nil {
		e = prev // another loop won the compile race
	} else {
		w.execs[id] = e
	}
	w.mu.Unlock()
	return e, nil
}

// lease asks for one shard. ok=false covers both "nothing available"
// and "campaign gone" — the caller just moves on either way.
func (w *Worker) lease(ctx context.Context, id string) (g LeaseGrant, ok bool, err error) {
	req, err := w.newRequest(ctx, http.MethodPost, "/campaigns/"+id+"/lease?worker="+w.opts.Name, nil)
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
	case http.StatusNoContent, http.StatusGone:
		return g, false, nil
	default:
		return g, false, httpError("lease", resp)
	}
}

// executeShard folds the leased shard locally, heartbeating the lease
// at TTL/3, and posts the aggregate. A lost lease (coordinator says
// 410 on renew) aborts the fold — the shard was reassigned, finishing
// it would only produce a duplicate.
func (w *Worker) executeShard(ctx context.Context, id string, g LeaseGrant) error {
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

	a, err := e.foldShard(g.Shard,
		func() bool { return ctx.Err() != nil || lost.Load() },
		nil)
	stopHB()
	hbWG.Wait()
	if err != nil {
		return err
	}
	if a == nil { // aborted: ctx cancelled or lease lost
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
	sim, hits := e.counterDelta()
	body := encodeShardAgg(digest, g.Shard, g.Hi-g.Lo, sim, hits, a)
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
