package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable lease clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestLeaseTableLifecycle(t *testing.T) {
	clk := newFakeClock()
	lt := newLeaseTable(3, 10*time.Second, clk.now)

	// Fresh shards hand out lowest-first.
	s0, tok0, ok := lt.acquire("w1")
	if !ok || s0 != 0 {
		t.Fatalf("first acquire = %d, %v; want shard 0", s0, ok)
	}
	s1, _, ok := lt.acquire("w2")
	if !ok || s1 != 1 {
		t.Fatalf("second acquire = %d, %v; want shard 1", s1, ok)
	}
	s2, tok2, ok := lt.acquire("w1")
	if !ok || s2 != 2 {
		t.Fatalf("third acquire = %d, %v; want shard 2", s2, ok)
	}
	if _, _, ok := lt.acquire("w3"); ok {
		t.Fatal("acquire succeeded with every shard leased")
	}

	// Renewal holds a lease across what would otherwise be expiry.
	clk.advance(8 * time.Second)
	if !lt.renew(0, tok0) {
		t.Fatal("renew of live lease failed")
	}
	if lt.renew(0, "bogus-token") {
		t.Fatal("renew with wrong token succeeded")
	}

	// w2 dies: shard 1 expires and reassigns; renewed shard 0 survives.
	clk.advance(4 * time.Second)
	got, _, ok := lt.acquire("w3")
	if !ok || got != 1 {
		t.Fatalf("post-expiry acquire = %d, %v; want reassigned shard 1", got, ok)
	}
	if lt.renew(2, tok2) {
		t.Fatal("renew of expired lease succeeded")
	}
	if st := lt.state(); st.Expired != 2 {
		t.Fatalf("expired = %d, want 2 (shards 1 and 2)", st.Expired)
	}

	// First completion wins; the late duplicate is flagged.
	if dup := lt.complete(1); dup {
		t.Fatal("first completion reported duplicate")
	}
	if dup := lt.complete(1); !dup {
		t.Fatal("second completion not reported duplicate")
	}

	// An expired-lease completion is still accepted first-write-wins.
	if dup := lt.complete(2); dup {
		t.Fatal("expired-lease completion rejected")
	}
	if dup := lt.complete(0); dup {
		t.Fatal("completion of renewed shard 0 rejected")
	}
	if !lt.allDone() {
		t.Fatal("allDone false with every shard complete")
	}
	st := lt.state()
	if st.Done != 3 || st.Leased != 0 || st.Duplicates != 1 || st.Workers != 3 {
		t.Fatalf("terminal state = %+v", st)
	}
}

func TestLeaseTableRelease(t *testing.T) {
	lt := newLeaseTable(2, time.Hour, nil)
	s, tok, _ := lt.acquire("w1")
	lt.release(s, "wrong-token") // no-op
	if _, _, ok := lt.acquire("w2"); !ok {
		t.Fatal("shard 1 not acquirable")
	}
	lt.release(s, tok)
	got, _, ok := lt.acquire("w2")
	if !ok || got != s {
		t.Fatalf("released shard not reassigned: got %d, %v", got, ok)
	}
}

func TestShardCodecRoundTrip(t *testing.T) {
	spec := smallSpec()
	ref := runToBytes(t, spec, Options{Jobs: 1})

	j, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	jspec := j.Spec()
	digest, err := jspec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	e := j.exec
	var payloads [][]byte
	for s := uint64(0); s < e.nShards(); s++ {
		a, err := e.foldShard(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := e.shardRange(s)
		payloads = append(payloads, encodeShardAgg(digest, s, hi-lo, 7, 3, a))
	}

	// Decoding and merging the wire forms reproduces the reference
	// bytes exactly: the codec is bit-transparent.
	j2, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range payloads {
		rep, err := decodeShardAgg(p, e.g.cells())
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if rep.digest != digest || rep.shard != uint64(s) || rep.simulated != 7 || rep.diskHits != 3 {
			t.Fatalf("shard %d header mismatch: %+v", s, rep)
		}
		j2.deliver(rep.shard, rep.agg)
	}
	ag, err := j2.g.aggregates(j2.total)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ag.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("decoded-and-merged bytes differ from reference")
	}

	// Corruption and structural mismatches are rejected.
	bad := append([]byte(nil), payloads[0]...)
	bad[len(bad)-6] ^= 1
	if _, err := decodeShardAgg(bad, e.g.cells()); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("corrupted payload decoded: %v", err)
	}
	if _, err := decodeShardAgg(payloads[0], e.g.cells()+1); err == nil {
		t.Fatal("wrong cell count decoded")
	}
	if _, err := decodeShardAgg(payloads[0][:10], e.g.cells()); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

// remoteLoop plays a remote worker against a Job in-process: lease,
// fold with its own executor, round-trip the wire codec, complete.
func remoteLoop(t *testing.T, j *Job, name string, done <-chan struct{}) {
	t.Helper()
	g2, err := compile(j.Spec())
	if err != nil {
		t.Error(err)
		return
	}
	e := newExecutor(g2, nil)
	jspec := j.Spec()
	digest, err := jspec.Digest()
	if err != nil {
		t.Error(err)
		return
	}
	for {
		select {
		case <-done:
			return
		default:
		}
		// Nothing to lease, or the job is not running: Lease answers
		// gone for a job that Execute has not started yet as well as
		// for a finished one. Poll on until done, as Worker does on
		// both its 204 and its 410.
		grant, ok, _ := j.Lease(name)
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		a, err := e.foldShard(grant.Shard, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		sim, hits := e.counterDelta()
		rep, err := decodeShardAgg(encodeShardAgg(digest, grant.Shard, grant.Hi-grant.Lo, sim, hits, a), g2.cells())
		if err != nil {
			t.Error(err)
			return
		}
		j.CompleteShard(rep)
	}
}

func TestDistributedByteIdentical(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 1 // 20 shards of 1 run: plenty of lease churn
	ref := runToBytes(t, spec, Options{Jobs: 1})

	// Coordinator-only: every shard must travel the lease protocol and
	// the wire codec, so remote participation is total, not a race.
	j, err := New(spec, Options{Jobs: 1, NoLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"remote/a", "remote/b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			remoteLoop(t, j, name, done)
		}(name)
	}
	execErr := j.Execute()
	close(done)
	wg.Wait()
	if execErr != nil {
		t.Fatal(execErr)
	}
	b, ok := j.Result()
	if !ok || !bytes.Equal(b, ref) {
		t.Fatalf("distributed bytes differ from -j 1 reference (ok=%v)", ok)
	}
	p := j.Progress()
	if p.RunsDone != p.TotalRuns {
		t.Fatalf("runs done %d of %d", p.RunsDone, p.TotalRuns)
	}
	// Coordinator-only mode: every run must have arrived remotely.
	if p.RemoteRuns != p.TotalRuns {
		t.Fatalf("remote runs %d of %d", p.RemoteRuns, p.TotalRuns)
	}
	if p.Leases == nil || p.Leases.Done != 20 {
		t.Fatalf("lease state = %+v", p.Leases)
	}

	// Post-completion traffic: everything answers gone.
	if _, _, gone := j.Lease("remote/late"); !gone {
		t.Fatal("lease granted on finished campaign")
	}
	if _, gone := j.CompleteShard(shardReport{shard: 0}); !gone {
		t.Fatal("completion accepted on finished campaign")
	}
	if j.RenewLease(0, "any") {
		t.Fatal("renew accepted on finished campaign")
	}
}

// TestWorkerCrashReassign kills a lease holder mid-campaign (it leases
// shards and never completes them) and asserts the TTL expiry path
// hands its shards back to the surviving local worker, with output
// bytes unperturbed and the duplicate late completion dropped.
func TestWorkerCrashReassign(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 1
	ref := runToBytes(t, spec, Options{Jobs: 1})

	j, err := New(spec, Options{Jobs: 1, LeaseTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker grabs every shard straight from the lease
	// table before Execute even starts, then "crashes": no renewals,
	// no completions. (Going under the Lease wrapper dodges the
	// status-gating race — on a fast machine the campaign would finish
	// before an HTTP worker got a single grant.) The local worker must
	// wait out the 30ms TTL and reclaim every shard.
	var grabbed []uint64
	for {
		s, _, ok := j.leases.acquire("remote/doomed")
		if !ok {
			break
		}
		grabbed = append(grabbed, s)
	}
	if len(grabbed) != 20 {
		t.Fatalf("doomed worker grabbed %d shards, want all 20", len(grabbed))
	}
	if err := j.Execute(); err != nil {
		t.Fatal(err)
	}
	b, ok := j.Result()
	if !ok || !bytes.Equal(b, ref) {
		t.Fatal("crash-reassign bytes differ from reference")
	}
	p := j.Progress()
	if p.Leases.Expired == 0 {
		t.Fatalf("doomed worker held %d leases but none expired", len(grabbed))
	}

	// A very late completion of a reassigned shard must be refused now
	// that the campaign is done — never merged twice.
	if _, gone := j.CompleteShard(shardReport{shard: grabbed[0]}); !gone {
		t.Fatal("late completion accepted after campaign finished")
	}
}

// startWorkers runs n Workers against the test server and returns a
// stop function that cancels and waits for them.
func startWorkers(t *testing.T, ts *httptest.Server, n int, opts WorkerOptions) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := opts
		o.Coordinator = ts.URL
		o.Name = "test-worker"
		o.PollInterval = 2 * time.Millisecond
		w, err := NewWorker(o)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func TestWorkerEndToEndHTTP(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 1
	ref := runToBytes(t, spec, Options{Jobs: 1})

	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := startWorkers(t, ts, 2, WorkerOptions{Logf: t.Logf})
	defer stop()

	code, p := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	fin := waitDone(t, ts, p.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status %v (%s)", fin.Status, fin.Error)
	}
	code, body := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("served bytes differ from reference (code %d)", code)
	}
}

func TestServerAuthToken(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	srv.SetAuthToken("sesame")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Tokenless and wrong-token requests bounce; healthz stays open.
	for _, auth := range []string{"", "Bearer wrong"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/campaigns", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("auth %q: code %d, want 401", auth, resp.StatusCode)
		}
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d with auth enabled", code)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/campaigns", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed list = %d, want 200", resp.StatusCode)
	}

	// An authed worker completes a campaign end to end.
	spec := smallSpec()
	ref := runToBytes(t, spec, Options{Jobs: 1})
	stop := startWorkers(t, ts, 1, WorkerOptions{Token: "sesame"})
	defer stop()
	b, _ := json.Marshal(spec)
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/campaigns", bytes.NewReader(b))
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	json.NewDecoder(resp.Body).Decode(&prog)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authed submit = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/campaigns/"+prog.ID, nil)
		req.Header.Set("Authorization", "Bearer sesame")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var p Progress
		json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if p.Status == StatusDone {
			break
		}
		if p.Status == StatusFailed || p.Status == StatusCancelled || time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v", p)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/campaigns/"+prog.ID+"/result", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, ref) {
		t.Fatal("authed distributed bytes differ from reference")
	}
}

func TestServerShardEndpointValidation(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, p := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, p.ID)

	post := func(path string, body []byte) int {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/campaigns/nope/shards/0", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign = %d, want 404", code)
	}
	if code := post("/campaigns/"+p.ID+"/shards/xyz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad shard index = %d, want 400", code)
	}
	if code := post("/campaigns/"+p.ID+"/shards/0", []byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("garbage payload = %d, want 400", code)
	}
	// A structurally valid payload for a finished campaign: gone.
	j, err := New(smallSpec(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := j.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jspec := j.Spec()
	digest, _ := jspec.Digest()
	lo, hi := j.exec.shardRange(0)
	payload := encodeShardAgg(digest, 0, hi-lo, 0, 0, a)
	if code := post("/campaigns/"+p.ID+"/shards/0", payload); code != http.StatusGone {
		t.Fatalf("completion on done campaign = %d, want 410", code)
	}
	// Frames that pass every framing check (encodeShardAgg recomputes
	// the crc) but whose counts cannot be shard 0's: rejected before
	// the campaign's state is consulted.
	moved := newAgg(j.g.cells())
	for i := lo; i < hi; i++ {
		res, err := j.exec.oneRun(i)
		if err != nil {
			t.Fatal(err)
		}
		cell := j.g.cellAt(i)
		if i == lo {
			cell = (cell + 1) % j.g.cells()
		}
		moved.add(cell, &res)
	}
	tamper := func(f func(c *cellAcc)) *agg {
		b := newAgg(j.g.cells())
		b.merge(a)
		f(&b.cells[0])
		return b
	}
	for _, bad := range []struct {
		name string
		agg  *agg
	}{
		{"run moved between cells", moved},
		{"completed > runs", tamper(func(c *cellAcc) { c.completed = c.runs + 1 })},
		{"lte_used > runs", tamper(func(c *cellAcc) { c.lteUsed = c.runs + 1 })},
		{"energy n != runs", tamper(func(c *cellAcc) { c.energy.N-- })},
		{"time n != completed", tamper(func(c *cellAcc) { c.dltime.N++ })},
		{"J/B n > runs", tamper(func(c *cellAcc) { c.jpb.N = c.runs + 1 })},
	} {
		if code := post("/campaigns/"+p.ID+"/shards/0", encodeShardAgg(digest, 0, hi-lo, 0, 0, bad.agg)); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", bad.name, code)
		}
	}
	// Lease and renew on a finished campaign: gone.
	if code := post("/campaigns/"+p.ID+"/lease", nil); code != http.StatusGone {
		t.Fatalf("lease on done campaign = %d, want 410", code)
	}
	if code := post("/campaigns/"+p.ID+"/shards/0/renew", nil); code != http.StatusGone {
		t.Fatalf("renew on done campaign = %d, want 410", code)
	}
}

func TestServerResultRetryAfter(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	// A job parked in the map but never queued: deterministically
	// unfinished when we poll its result.
	j, err := New(smallSpec(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.byID[j.ID()] = j
	srv.order = append(srv.order, j.ID())
	srv.mu.Unlock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/campaigns/" + j.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished result = %d, want 409", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("409 without Retry-After header")
	}
}

func TestServerDigestCollisionRejected(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	// Forge a collision: park an existing job under the ID the new
	// submission will hash to, but with a different spec. (Real 64-bit
	// ID collisions exist; constructing one by search is not worth the
	// CPU, so the test plants the collision directly.)
	other := smallSpec()
	other.Name = "other"
	victim, err := New(other, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub := smallSpec()
	subJob, err := New(sub, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.byID[subJob.ID()] = victim
	srv.order = append(srv.order, subJob.ID())
	srv.mu.Unlock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := postSpec(t, ts, sub)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("colliding submit = %d, want 422", code)
	}
	// And the idempotent path still works: resubmitting the planted
	// spec itself coalesces instead of 422ing.
	if code, _ := postSpec(t, ts, other); code == http.StatusUnprocessableEntity {
		t.Fatal("identical resubmission rejected as collision")
	}
}

func TestServerStatz(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, p := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, p.ID)

	code, body := getBody(t, ts.URL+"/statz")
	if code != http.StatusOK {
		t.Fatalf("statz = %d", code)
	}
	var st Statz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statz not JSON: %v", err)
	}
	if len(st.Campaigns) != 1 || st.Campaigns[0].ID != p.ID {
		t.Fatalf("statz campaigns = %+v", st.Campaigns)
	}
	if st.Campaigns[0].Leases == nil || st.Campaigns[0].Leases.Done == 0 {
		t.Fatalf("statz lease state missing: %+v", st.Campaigns[0].Leases)
	}
	if st.Campaigns[0].Aggregates != nil {
		t.Fatal("statz carries aggregates; it should stay light")
	}

	// pprof is mounted.
	if code, _ := getBody(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", code)
	}
}
