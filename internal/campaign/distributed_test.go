package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
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
	lt := newLeaseTable(3, 1, 10*time.Second, clk.now)

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

	// First completion wins; the late duplicate is flagged. Shard 1
	// parks until shard 0 merges.
	if dup := lt.complete(1, newAgg(1)); dup {
		t.Fatal("first completion reported duplicate")
	}
	if dup := lt.complete(1, newAgg(1)); !dup {
		t.Fatal("second completion not reported duplicate")
	}
	if st := lt.state(); st.Done != 1 || lt.merged != 0 || len(lt.pending) != 1 {
		t.Fatalf("after shard 1: done %d, merged %d, pending %d; want 1, 0, 1", st.Done, lt.merged, len(lt.pending))
	}

	// An expired-lease completion is still accepted first-write-wins.
	if dup := lt.complete(2, newAgg(1)); dup {
		t.Fatal("expired-lease completion rejected")
	}
	select {
	case <-lt.finished:
		t.Fatal("finished closed with shard 0 outstanding")
	default:
	}
	if dup := lt.complete(0, newAgg(1)); dup {
		t.Fatal("completion of renewed shard 0 rejected")
	}
	select {
	case <-lt.finished:
	default:
		t.Fatal("finished open with every shard complete")
	}
	st := lt.state()
	if st.Done != 3 || st.Leased != 0 || st.Duplicates != 1 || st.Workers != 3 || len(lt.pending) != 0 {
		t.Fatalf("terminal state = %+v, %d pending", st, len(lt.pending))
	}
	if lt.renew(0, tok0) {
		t.Fatal("renew of a completed shard succeeded")
	}
}

// TestLeaseTableHoldsNoShardEntries is the ledger's memory bound: once
// a campaign of 1,000 one-run shards completes, the lease table keeps
// no per-shard entry — pending, leases and the reassignment queue are
// empty, and no done set exists — while its state still counts every
// shard done. Two local workers and a remote one race for the shards,
// so completions may arrive out of order and park in pending.
func TestLeaseTableHoldsNoShardEntries(t *testing.T) {
	spec := oneCellSpec(250, 4)
	spec.ShardSize = 1
	j, err := New(spec, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		remoteLoop(t, j, "remote/a", done)
	}()
	execErr := j.Execute()
	close(done)
	wg.Wait()
	if execErr != nil {
		t.Fatal(execErr)
	}
	lt := j.leases
	st := lt.state()
	if st.Shards != 1000 || st.Done != 1000 || lt.merged != 1000 {
		t.Fatalf("state %+v, merged %d: want 1,000 shards done and merged", st, lt.merged)
	}
	if len(lt.pending) != 0 || len(lt.leases) != 0 || len(lt.free) != 0 {
		t.Fatalf("finished table holds %d pending, %d leases, %d queued shards; want none",
			len(lt.pending), len(lt.leases), len(lt.free))
	}
}

// TestLeaseTableTake pins how local folds and remote leases share the
// table: take hands out the lowest free shard without recording a
// lease, so it never expires, counts no worker and never goes back to
// acquire; an expired remote lease is taken back in index order.
func TestLeaseTableTake(t *testing.T) {
	clk := newFakeClock()
	lt := newLeaseTable(4, 1, 10*time.Second, clk.now)
	if s, ok := lt.take(); !ok || s != 0 {
		t.Fatalf("take = %d, %v; want shard 0", s, ok)
	}
	if s, _, ok := lt.acquire("remote/a"); !ok || s != 1 {
		t.Fatalf("acquire = %d, %v; want shard 1", s, ok)
	}
	if st := lt.state(); st.Leased != 1 || st.Workers != 1 {
		t.Fatalf("state %+v: want the one remote lease and worker only", st)
	}
	clk.advance(11 * time.Second)
	if s, ok := lt.take(); !ok || s != 1 {
		t.Fatalf("take after expiry = %d, %v; want reassigned shard 1", s, ok)
	}
	if s, _, ok := lt.acquire("remote/b"); !ok || s != 2 {
		t.Fatalf("acquire after expiry = %d, %v; want shard 2, not a taken one", s, ok)
	}
	if s, ok := lt.take(); !ok || s != 3 {
		t.Fatalf("take = %d, %v; want shard 3", s, ok)
	}
	if _, ok := lt.take(); ok {
		t.Fatal("take succeeded with every shard handed out")
	}
	if st := lt.state(); st.Expired != 1 || st.Leased != 1 || st.Workers != 2 {
		t.Fatalf("state %+v: want 1 expiry, 1 lease, 2 workers", st)
	}
}

// TestLocalFoldHoldsNoLease plays a local fold that outlives the lease
// TTL: the injected clock jumps past it while the coordinator's own
// worker folds the campaign's only shard. A remote lease after the jump
// must not be granted that shard, and the job ends done with every run
// counted once.
func TestLocalFoldHoldsNoLease(t *testing.T) {
	spec := oneCellSpec(1, 20000)
	spec.ShardSize = 20000
	clk := newFakeClock()
	j, err := New(spec, Options{Jobs: 1, LeaseTTL: 10 * time.Second, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	taken := func() bool { // the local worker has taken the shard
		j.leases.mu.Lock()
		defer j.leases.mu.Unlock()
		return j.leases.next > 0
	}
	execErr := make(chan error, 1)
	go func() { execErr <- j.Execute() }()
	for !taken() {
		runtime.Gosched()
	}
	clk.advance(11 * time.Second)
	if g, ok := j.Lease("remote/x"); ok {
		j.Cancel()
		<-execErr
		t.Fatalf("remote worker granted shard %d while a local worker folds it", g.Shard)
	}
	mid := j.leases.state()
	if err := <-execErr; err != nil {
		t.Fatal(err)
	}
	if mid.Done != 0 { // ~4 µs a run: the probe lands within the first few hundred
		t.Fatal("the fold finished before the lease was probed")
	}
	p := j.Progress()
	if p.Status != StatusDone || p.RunsDone != p.TotalRuns {
		t.Fatalf("status %s with %d of %d runs done", p.Status, p.RunsDone, p.TotalRuns)
	}
	if p.Leases.Workers != 0 || p.Leases.Expired != 0 {
		t.Fatalf("lease state %+v: a local fold leased or expired", p.Leases)
	}
}

// TestLateRemoteCompletionCountsOnce plays a remote worker whose lease
// expires: the campaign's only shard goes back to the local worker, and
// the remote worker's completion lands after the local fold has begun.
// First write wins, so the remote completion is accepted, the local
// fold's completion is dropped as a duplicate, and the job ends done
// with every run counted once.
func TestLateRemoteCompletionCountsOnce(t *testing.T) {
	spec := oneCellSpec(1, 20000)
	spec.ShardSize = 20000
	ref, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ref.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	j, err := New(spec, Options{Jobs: 1, LeaseTTL: 10 * time.Second, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := j.leases.acquire("remote/x"); !ok {
		t.Fatal("remote worker got no lease")
	}
	clk.advance(11 * time.Second)
	execErr := make(chan error, 1)
	go func() { execErr <- j.Execute() }()
	// The local worker's take reaps the expired lease and folds the shard.
	for j.leases.state().Leased != 0 {
		runtime.Gosched()
	}
	if dup, gone := j.CompleteShard(rep); dup || gone {
		j.Cancel()
		<-execErr
		t.Fatalf("late remote completion: dup=%v gone=%v", dup, gone)
	}
	if err := <-execErr; err != nil {
		t.Fatal(err)
	}
	p := j.Progress()
	if p.Status != StatusDone || p.RunsDone != p.TotalRuns || p.RemoteRuns != p.TotalRuns {
		t.Fatalf("status %s with %d of %d runs done, %d remote", p.Status, p.RunsDone, p.TotalRuns, p.RemoteRuns)
	}
	if p.Simulated+p.DiskHits != p.RunsDone {
		t.Fatalf("%d simulated and %d disk hits of %d runs done", p.Simulated, p.DiskHits, p.RunsDone)
	}
	if p.Leases.Duplicates != 1 {
		t.Fatalf("lease state %+v: want the local fold's completion dropped as the one duplicate", p.Leases)
	}
	if got, err := p.Aggregates.MarshalCanonical(); err != nil || !bytes.Equal(got, runToBytes(t, spec, Options{Jobs: 1})) {
		t.Fatalf("aggregates differ from the -j 1 reference (err %v)", err)
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
		rep, err := e.foldShard(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, encodeShardAgg(scenario.KeyVersion, digest, s, rep.runs, 7, 3, rep.agg))
	}

	// Decoding the wire forms and completing them in reverse order
	// through the lease table reproduces the reference bytes exactly:
	// the codec is bit-transparent and the table merges in shard order.
	j2, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := len(payloads) - 1; s >= 0; s-- {
		rep, err := decodeShardAgg(payloads[s], e.g.cells())
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if rep.digest != digest || rep.shard != uint64(s) || rep.simulated != 7 || rep.diskHits != 3 {
			t.Fatalf("shard %d header mismatch: %+v", s, rep)
		}
		if dup := j2.leases.complete(rep.shard, rep.agg); dup {
			t.Fatalf("shard %d completed twice", s)
		}
	}
	ag, err := j2.leases.aggregates(j2.g)
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
		// Nothing to lease, or the job is not running yet or any more:
		// poll on until done, as Worker does on a 204.
		grant, ok := j.Lease(name)
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		folded, err := e.foldShard(grant.Shard, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		rep, err := decodeShardAgg(encodeShardAgg(scenario.KeyVersion, digest, folded.shard, folded.runs, folded.simulated, folded.diskHits, folded.agg), g2.cells())
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
	j, err := New(spec, Options{Jobs: 1, noLocalExec: true})
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

	// Post-completion traffic: no lease, and the rest answers gone.
	if _, ok := j.Lease("remote/late"); ok {
		t.Fatal("lease granted on finished campaign")
	}
	if _, gone := j.CompleteShard(shardReport{shard: 0}); !gone {
		t.Fatal("completion accepted on finished campaign")
	}
	if j.RenewLease(0, "any") {
		t.Fatal("renew accepted on finished campaign")
	}
}

// A Progress that says done counts every run, even one snapshotted
// while the last remote shard lands: pollers race the only completion
// of many one-shard campaigns.
func TestDoneProgressCountsEveryRun(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 20 // the whole grid in one shard
	ref, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ref.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const pollers = 8
	for k := 0; k < 2000; k++ {
		j, err := New(spec, Options{Jobs: 1, noLocalExec: true})
		if err != nil {
			t.Fatal(err)
		}
		execErr := make(chan error, 1)
		go func() { execErr <- j.Execute() }()
		for !j.running() {
			runtime.Gosched()
		}
		polled := make(chan Progress, pollers)
		for w := 0; w < pollers; w++ {
			go func() {
				for {
					if p := j.summary(); p.Status != StatusRunning {
						polled <- p
						return
					}
				}
			}()
		}
		if dup, gone := j.CompleteShard(rep); dup || gone {
			j.Cancel() // release Execute and the pollers
			t.Fatalf("campaign %d: completion dup=%v gone=%v", k, dup, gone)
		}
		if err := <-execErr; err != nil {
			t.Fatal(err)
		}
		for w := 0; w < pollers; w++ {
			p := <-polled
			if p.Status != StatusDone || p.RunsDone != p.TotalRuns || p.RemoteRuns != p.TotalRuns ||
				p.Simulated != rep.simulated || p.DiskHits != rep.diskHits {
				t.Fatalf("campaign %d: polled %+v, want done with all %d runs counted", k, p, p.TotalRuns)
			}
		}
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
	rep, err := j.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.agg
	jspec := j.Spec()
	digest, _ := jspec.Digest()
	lo, hi := j.exec.shardRange(0)
	payload := encodeShardAgg(scenario.KeyVersion, digest, 0, rep.runs, rep.simulated, rep.diskHits, a)
	if code := post("/campaigns/"+p.ID+"/shards/0", payload); code != http.StatusGone {
		t.Fatalf("completion on done campaign = %d, want 410", code)
	}
	// Frames that pass every framing check (encodeShardAgg recomputes
	// the crc) but whose counts cannot be shard 0's: rejected before
	// the campaign's state is consulted.
	moved := newAgg(j.g.cells())
	for i := lo; i < hi; i++ {
		res, _, err := j.exec.oneRun(i, nil)
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
	if c := &a.cells[0]; c.energy.N == 0 || c.dltime.N == 0 {
		t.Fatalf("shard 0 cell 0 has %d energy and %d time samples; the moment rows need both", c.energy.N, c.dltime.N)
	}
	// moments tampers one moment of a stream, keeping its count.
	moments := func(st func(c *cellAcc) *stats.Stream, f func(mean, m2, mn, mx *float64)) *agg {
		return tamper(func(c *cellAcc) {
			n, mean, m2, mn, mx := st(c).Moments()
			f(&mean, &m2, &mn, &mx)
			*st(c) = stats.StreamFromMoments(n, mean, m2, mn, mx)
		})
	}
	energy := func(c *cellAcc) *stats.Stream { return &c.energy }
	dltime := func(c *cellAcc) *stats.Stream { return &c.dltime }
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
		{"energy mean NaN", moments(energy, func(mean, _, _, _ *float64) { *mean = math.NaN() })},
		{"energy m2 +Inf", moments(energy, func(_, m2, _, _ *float64) { *m2 = math.Inf(1) })},
		{"energy min -Inf", moments(energy, func(_, _, mn, _ *float64) { *mn = math.Inf(-1) })},
		{"time max NaN", moments(dltime, func(_, _, _, mx *float64) { *mx = math.NaN() })},
		{"energy m2 < 0", moments(energy, func(_, m2, _, _ *float64) { *m2 = -1 })},
		{"energy mean < min", moments(energy, func(mean, _, mn, _ *float64) { *mean = *mn - 1 })},
		{"time mean > max", moments(dltime, func(mean, _, _, mx *float64) { *mean = *mx + 1 })},
	} {
		if code := post("/campaigns/"+p.ID+"/shards/0", encodeShardAgg(scenario.KeyVersion, digest, 0, rep.runs, rep.simulated, rep.diskHits, bad.agg)); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", bad.name, code)
		}
	}
	// With the campaign finished, a lease finds nothing to grant and a
	// renew finds its lease gone.
	if code := post("/lease?model_version="+strconv.Itoa(scenario.KeyVersion), nil); code != http.StatusNoContent {
		t.Fatalf("lease with no campaign running = %d, want 204", code)
	}
	if code := post("/campaigns/"+p.ID+"/shards/0/renew", nil); code != http.StatusGone {
		t.Fatalf("renew on done campaign = %d, want 410", code)
	}
}

// A shard frame's simulated and disk-hit counts must split its runs.
// Before, handleShard added them unchecked: a 20-run frame claiming
// 2^64−1 simulated runs was accepted, and the done campaign reported a
// hit rate of −9.2e17. The coordinator simulates nothing itself, so
// only the honest frame can finish the campaign.
func TestServerShardRefusesImpossibleCounts(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 20 // the whole grid in one shard
	srv := NewServerOpts(Options{Jobs: 1, noLocalExec: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, p := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jspec := j.Spec()
	digest, err := jspec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	post := func(sim, hits uint64) int {
		frame := encodeShardAgg(scenario.KeyVersion, digest, 0, rep.runs, sim, hits, rep.agg)
		resp, err := http.Post(ts.URL+"/campaigns/"+p.ID+"/shards/0", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if rep.runs != 20 {
		t.Fatalf("shard 0 has %d runs, want 20", rep.runs)
	}
	srv.mu.Lock()
	job := srv.byID[p.ID]
	srv.mu.Unlock()
	for !job.running() { // so a frame the checks let through would merge
		runtime.Gosched()
	}
	for _, c := range []struct{ sim, hits uint64 }{{math.MaxUint64, 0}, {math.MaxUint64, 21}, {0, 0}, {20, 1}} {
		if code := post(c.sim, c.hits); code != http.StatusBadRequest {
			t.Errorf("frame counting %d simulated and %d disk hits of 20 runs = %d, want 400", c.sim, c.hits, code)
		}
	}
	if code := post(rep.simulated, rep.diskHits); code != http.StatusOK {
		t.Fatalf("honest frame = %d, want 200", code)
	}
	fin := waitDone(t, ts, p.ID)
	if fin.Status != StatusDone || fin.Simulated+fin.DiskHits != fin.RunsDone || fin.Simulated != rep.simulated {
		t.Fatalf("done campaign %+v: want %d simulated and %d disk hits of %d runs", fin, rep.simulated, rep.diskHits, fin.RunsDone)
	}
}

// A worker built from another model gets 409 for its lease requests and
// its shard frames, with both versions in the body, before any campaign
// state is consulted.
func TestServerShardModelVersionMismatch(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, p := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, p.ID)

	other := scenario.KeyVersion + 1
	post := func(path string, body []byte) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	j, err := New(smallSpec(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.exec.foldShard(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jspec := j.Spec()
	digest, _ := jspec.Digest()
	code, body := post("/campaigns/"+p.ID+"/shards/0", encodeShardAgg(byte(other), digest, 0, rep.runs, rep.simulated, rep.diskHits, rep.agg))
	if code != http.StatusConflict {
		t.Fatalf("frame from model version %d = %d, want 409 (%s)", other, code, body)
	}
	for _, v := range []int{scenario.KeyVersion, other} {
		if !strings.Contains(body, "version "+strconv.Itoa(v)) {
			t.Errorf("409 body does not name version %d: %s", v, body)
		}
	}

	for _, q := range []string{"?model_version=" + strconv.Itoa(other), "", "?worker=w&model_version=x"} {
		if code, body := post("/lease"+q, nil); code != http.StatusConflict {
			t.Errorf("lease%s = %d, want 409 (%s)", q, code, body)
		}
	}
}

// TestWorkerModelVersionMismatchRefused plays a fleet with one worker
// built from another model against a coordinator that simulates
// nothing itself. The stale worker is refused every lease, so it never
// holds a shard; the honest worker then runs the whole campaign, whose
// bytes equal the single-process reference.
func TestWorkerModelVersionMismatchRefused(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 1
	ref := runToBytes(t, spec, Options{Jobs: 1})

	srv := NewServerOpts(Options{Jobs: 1, noLocalExec: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stale, err := NewWorker(WorkerOptions{
		Coordinator:  ts.URL,
		Name:         "stale",
		PollInterval: 2 * time.Millisecond,
		modelVersion: scenario.KeyVersion + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stale.Run(ctx)
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	code, p := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for stale.Refused.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stale worker was refused %d times", stale.Refused.Load())
		}
		time.Sleep(time.Millisecond)
	}
	code, b := getBody(t, ts.URL+"/campaigns/"+p.ID)
	var mid Progress
	if err := json.Unmarshal(b, &mid); code != http.StatusOK || err != nil {
		t.Fatalf("status = %d: %v", code, err)
	}
	if mid.RunsDone != 0 || mid.Leases == nil || mid.Leases.Workers != 0 || mid.Leases.Leased != 0 {
		t.Fatalf("stale worker got work: %+v, leases %+v", mid, mid.Leases)
	}

	stop := startWorkers(t, ts, 1, WorkerOptions{})
	defer stop()
	fin := waitDone(t, ts, p.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status %v (%s)", fin.Status, fin.Error)
	}
	code, body := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("bytes differ from the single-process reference (code %d)", code)
	}
	if n := stale.ShardsDone.Load() + stale.Duplicates.Load(); n != 0 {
		t.Fatalf("stale worker posted %d shards", n)
	}
	if fin.Leases.Workers != 1 || fin.RemoteRuns != fin.TotalRuns {
		t.Fatalf("leases %+v, remote runs %d of %d: want every shard from the one honest worker",
			fin.Leases, fin.RemoteRuns, fin.TotalRuns)
	}
}

// fakeLeaseCoordinator answers only POST /lease, with the given code
// and grant, and 404 to anything else; it records every request the
// worker sends as "METHOD path".
func fakeLeaseCoordinator(code int, g LeaseGrant) (*httptest.Server, func() []string) {
	var mu sync.Mutex
	var reqs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, r.Method+" "+r.URL.Path)
		mu.Unlock()
		switch {
		case r.Method != http.MethodPost || r.URL.Path != "/lease":
			w.WriteHeader(http.StatusNotFound)
		case code == http.StatusOK:
			writeJSON(w, code, g)
		default:
			w.WriteHeader(code)
		}
	}))
	return ts, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), reqs...)
	}
}

// A coordinator that grants a lease without checking the version (one
// built before the check) is refused by the worker before it fetches
// the spec or simulates anything. The fake coordinator answers only
// POST /lease, so it also sees the worker's whole exchange: one lease
// request, with no campaign listing before it.
func TestWorkerRefusesMismatchedGrant(t *testing.T) {
	ts, reqs := fakeLeaseCoordinator(http.StatusOK, LeaseGrant{Campaign: "c1", Shard: 0, Lo: 0, Hi: 1, Token: "t", TTLMs: 1000})
	defer ts.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.once(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "model version") {
		t.Fatalf("once = %v, want a model-version refusal", err)
	}
	if w.Refused.Load() != 1 {
		t.Fatalf("refused %d grants, want 1", w.Refused.Load())
	}
	if got := reqs(); len(got) != 1 || got[0] != "POST /lease" {
		t.Fatalf("worker sent %q, want only POST /lease", got)
	}
}

// TestWorkerLeasesWithoutListing: with nothing to grant (204), a
// worker's idle poll is one POST /lease and nothing else.
func TestWorkerLeasesWithoutListing(t *testing.T) {
	ts, reqs := fakeLeaseCoordinator(http.StatusNoContent, LeaseGrant{})
	defer ts.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if worked, err := w.once(context.Background(), nil); worked || err != nil {
		t.Fatalf("once = %v, %v; want an idle poll", worked, err)
	}
	if got := reqs(); len(got) != 1 || got[0] != "POST /lease" {
		t.Fatalf("worker sent %q, want only POST /lease", got)
	}
}

// TestHonestShardsPassValidation is the converse of the rejection rows
// above: checkShard refuses no frame a correct worker sends. It covers
// every shard of the test grid through the wire codec, and streams
// built by random sequences of Stream.Add and Stream.Merge over samples
// of mixed sign, magnitude and multiplicity.
func TestHonestShardsPassValidation(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 3 // shards that straddle cells
	j, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	jspec := j.Spec()
	digest, _ := jspec.Digest()
	for s := uint64(0); s < j.exec.nShards(); s++ {
		folded, err := j.exec.foldShard(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := decodeShardAgg(encodeShardAgg(scenario.KeyVersion, digest, s, folded.runs, folded.simulated, folded.diskHits, folded.agg), j.g.cells())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.exec.checkShard(s, rep.agg); err != nil {
			t.Errorf("honest shard %d refused: %v", s, err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	sample := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(3)) // repeats
		case 1:
			return 1 + float64(rng.Intn(4))*0x1p-52 // one ulp apart
		case 2:
			return math.Pow(10, rng.Float64()*18-12) // 1e-12 to 1e6
		default:
			return -100 * rng.ExpFloat64()
		}
	}
	var build func(depth int) stats.Stream
	build = func(depth int) stats.Stream {
		var st stats.Stream
		for k := rng.Intn(24); k > 0; k-- {
			if depth > 0 && rng.Intn(3) == 0 {
				st.Merge(build(depth - 1))
			} else {
				st.Add(sample())
			}
			if !validMoments(&st) {
				n, mean, m2, mn, mx := st.Moments()
				t.Fatalf("honest stream refused: n=%d mean=%g m2=%g min=%g max=%g", n, mean, m2, mn, mx)
			}
		}
		return st
	}
	for trial := 0; trial < 2000; trial++ {
		build(3)
	}
}

// walkCellRuns is the reference for grid.runsBelow: it decodes every
// run of [lo, hi) into its cell.
func walkCellRuns(g *grid, lo, hi uint64) []uint64 {
	n := make([]uint64, g.cells())
	for i := lo; i < hi; i++ {
		n[g.cellAt(i)]++
	}
	return n
}

// TestRunsBelowMatchesWalk: over random specs (replicas included) and
// random run ranges, some of them straddling a multiple of the cell
// period P, the per-cell counts checkShard derives from the grid's mixed
// radix equal a walk over every run.
func TestRunsBelowMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(from []string) []string {
		out := slices.Clone(from)
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out[:1+rng.Intn(len(out))]
	}
	for trial := 0; trial < 300; trial++ {
		spec := Spec{
			WiFi:      pick([]string{"bad", "good"}),
			LTE:       pick([]string{"bad", "good"}),
			Locations: pick([]string{"wdc", "ams", "sng"}),
			SizesMB:   []float64{0.25, 1, 4}[:1+rng.Intn(3)],
			Protocols: pick([]string{"tcp-wifi", "tcp-lte", "mptcp", "emptcp", "wifi-first", "mdp", "single-path"}),
			Seeds:     SeedRange{Base: rng.Int63n(100), Count: 1 + rng.Intn(6)},
			Replicate: 1 + rng.Intn(4),
		}
		g, err := compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		period := uint64(len(g.locs)) * uint64(g.spec.Seeds.Count) * uint64(g.cells())
		for r := 0; r < 20; r++ {
			lo := uint64(rng.Int63n(int64(g.total) + 1))
			hi := lo + uint64(rng.Int63n(int64(g.total-lo)+1))
			if r%2 == 1 { // straddle a period boundary
				k := uint64(rng.Int63n(int64(g.total/period) + 1))
				lo = k*period - min(k*period, uint64(rng.Intn(int(period)+1)))
				hi = min(g.total, k*period+uint64(rng.Intn(int(period)+1)))
			}
			want := walkCellRuns(g, lo, hi)
			for c := range want {
				if got := g.runsBelow(hi, c) - g.runsBelow(lo, c); got != want[c] {
					t.Fatalf("spec %+v, runs [%d, %d), cell %d: runsBelow gives %d, the walk %d", spec, lo, hi, c, got, want[c])
				}
			}
		}
	}
}

// TestHugeShardValidates: checkShard accepts an honest frame for a
// shard of 2^36 runs at once. A walk over its runs (~25 ns each) would
// take about half an hour. The shard spans one replica of a two-cell
// grid (3·2^34 runs, cells in blocks of 3·2^33) and the first 2^34 runs
// of the next, all in cell 0.
func TestHugeShardValidates(t *testing.T) {
	spec := oneCellSpec(2, 3<<33)
	spec.Protocols = []string{"mptcp", "emptcp"}
	spec.ShardSize = 1 << 36
	j, err := New(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	frame := func(runs ...uint64) []byte {
		a := newAgg(j.g.cells())
		for i, n := range runs {
			st := stats.StreamFromMoments(n, 1, 0, 1, 1)
			a.cells[i] = cellAcc{runs: n, completed: n, energy: st, dltime: st, jpb: st}
		}
		return encodeShardAgg(scenario.KeyVersion, digest, 0, 1<<36, 0, 0, a)
	}
	for _, tc := range []struct {
		cell0, cell1 uint64
		ok           bool
	}{
		{5 << 33, 3 << 33, true},
		{5<<33 - 1, 3<<33 + 1, false}, // one run moved between cells
	} {
		rep, err := decodeShardAgg(frame(tc.cell0, tc.cell1), j.g.cells())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.exec.checkShard(0, rep.agg); (err == nil) != tc.ok {
			t.Errorf("cells %d and %d: checkShard = %v, want ok=%v", tc.cell0, tc.cell1, err, tc.ok)
		}
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
