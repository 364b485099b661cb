package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runcache"
)

func postSpec(t *testing.T, ts *httptest.Server, spec Spec) (int, Progress) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p Progress
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, p
}

// postCancel cancels campaign id and requires the 202 that answers it.
func postCancel(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel %s = %d", id, resp.StatusCode)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) Progress {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var p Progress
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch p.Status {
		case StatusDone:
			if p.RunsDone != p.TotalRuns {
				t.Fatalf("campaign %s done with %d of %d runs counted", id, p.RunsDone, p.TotalRuns)
			}
			return p
		case StatusFailed, StatusCancelled:
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return Progress{}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestServerEndToEnd(t *testing.T) {
	ref := runToBytes(t, smallSpec(), Options{Jobs: 1})

	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(Options{Disk: store, Jobs: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health first.
	if code, b := getBody(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(string(b), "ok") {
		t.Fatalf("healthz: %d %q", code, b)
	}

	// Bad submissions are 400 with a JSON error.
	for _, body := range []string{"{not json", `{"unknown_field": 1}`, `{"seeds":{"count":0}}`, `{"protocols":["quic"],"seeds":{"count":1}}`,
		`{"wifi":["good","good"],"seeds":{"count":1}}`} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400 (%s)", body, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "error") {
			t.Errorf("POST %q: no error body: %s", body, b)
		}
	}

	// Submit, await, fetch: result bytes must equal the direct -j 1 run.
	code, p := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if p.Status != StatusQueued && p.Status != StatusRunning {
		t.Fatalf("fresh campaign reported %v", p.Status)
	}
	fin := waitDone(t, ts, p.ID)
	if fin.Status != StatusDone {
		t.Fatalf("campaign finished %v (%s)", fin.Status, fin.Error)
	}
	if fin.RunsDone != fin.TotalRuns || fin.Aggregates == nil {
		t.Fatalf("done campaign progress incomplete: %+v", fin)
	}
	code, got := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result")
	if code != 200 {
		t.Fatalf("result: status %d", code)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("served aggregates differ from direct -j 1 run\nref: %s\ngot: %s", ref, got)
	}
	// Served bytes are stable across GETs.
	if _, again := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result"); !bytes.Equal(again, got) {
		t.Error("two GETs of the same result differ")
	}

	// Resubmitting the same spec attaches to the done job (200, not a
	// new run).
	code2, p2 := postSpec(t, ts, smallSpec())
	if code2 != http.StatusOK || p2.ID != p.ID || p2.Status != StatusDone {
		t.Errorf("resubmit: %d %v %v", code2, p2.ID, p2.Status)
	}

	// Listing shows the one campaign, light (no aggregates).
	code, lb := getBody(t, ts.URL+"/campaigns")
	if code != 200 {
		t.Fatalf("list: %d", code)
	}
	var list []Progress
	if err := json.Unmarshal(lb, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != p.ID || list[0].Aggregates != nil {
		t.Errorf("list: %s", lb)
	}

	// Unknown id → 404.
	if code, _ := getBody(t, ts.URL+"/campaigns/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/campaigns/deadbeef/result"); code != http.StatusNotFound {
		t.Errorf("unknown id result: %d, want 404", code)
	}
}

// TestServerShutdownResume is the serve-layer acceptance path: kill the
// server mid-campaign, restart on the same cache dir, resubmit, and
// the result must be byte-identical to an uninterrupted single-process
// run, with the interrupted prefix replayed from disk.
func TestServerShutdownResume(t *testing.T) {
	spec := smallSpec()
	spec.Seeds.Count = 40 // ~320 runs of runway
	ref := runToBytes(t, spec, Options{Jobs: 1})

	dir := t.TempDir()
	store, err := runcache.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(Options{Disk: store, Jobs: 1})
	ts := httptest.NewServer(srv.Handler())

	code, p := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Let it make some progress, then shut the server down mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sc, b := getBody(t, ts.URL+"/campaigns/"+p.ID)
		if sc != 200 {
			t.Fatalf("status: %d", sc)
		}
		var cur Progress
		if err := json.Unmarshal(b, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.RunsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Close(); err != nil { // graceful: cancels + syncs
		t.Fatal(err)
	}
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store handle, server, and listener on the same
	// cache directory.
	store2, err := runcache.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	persisted := store2.Len()
	if persisted == 0 {
		t.Fatal("shutdown persisted nothing")
	}
	srv2 := NewServerOpts(Options{Disk: store2, Jobs: 2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	code, p2 := postSpec(t, ts2, spec)
	if code != http.StatusAccepted || p2.ID != p.ID {
		t.Fatalf("resubmit after restart: %d id=%s want %s", code, p2.ID, p.ID)
	}
	fin := waitDone(t, ts2, p2.ID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed campaign finished %v (%s)", fin.Status, fin.Error)
	}
	if fin.RunsDone == fin.Simulated {
		t.Errorf("resume simulated everything (%d runs) — disk cache unused", fin.Simulated)
	}
	if want := fin.TotalRuns - uint64(persisted); fin.Simulated != want {
		t.Errorf("resume simulated %d, want %d (%d persisted)", fin.Simulated, want, persisted)
	}
	code, got := getBody(t, ts2.URL+"/campaigns/"+p2.ID+"/result")
	if code != 200 {
		t.Fatalf("result after resume: %d", code)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed aggregates differ from uninterrupted -j 1 run")
	}
}

// TestServerResultConflict pins the 409 contract: asking for the result
// of an unfinished campaign returns its progress, not partial bytes.
func TestServerResultConflict(t *testing.T) {
	spec := smallSpec()
	spec.Seeds.Count = 2000 // long enough to still be running when probed

	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, p := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	code, b := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result")
	if code == http.StatusOK {
		t.Skip("campaign outran the probe")
	}
	if code != http.StatusConflict {
		t.Fatalf("unfinished result: %d, want 409", code)
	}
	var cur Progress
	if err := json.Unmarshal(b, &cur); err != nil {
		t.Fatalf("409 body is not progress: %v\n%s", err, b)
	}

	// Cancel over HTTP; terminal state must be cancelled and result
	// must stay 409.
	postCancel(t, ts, p.ID)
	fin := waitDone(t, ts, p.ID)
	if fin.Status != StatusCancelled {
		t.Skipf("campaign finished %v before cancel landed", fin.Status)
	}
	if code, _ := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result"); code != http.StatusConflict {
		t.Errorf("cancelled result: %d, want 409", code)
	}

	// A resubmit after cancellation starts a fresh attempt (202).
	code, p3 := postSpec(t, ts, spec)
	if code != http.StatusAccepted || p3.ID != p.ID {
		t.Fatalf("resubmit after cancel: %d", code)
	}
	if fin := waitDone(t, ts, p3.ID); fin.Status != StatusDone {
		t.Fatalf("replacement finished %v", fin.Status)
	}
}

// TestServerQueueFullLeavesNoJob submits to a server whose queue takes
// nothing (unbuffered, no dispatcher). The 503 must leave no trace: no
// status, no listing, and a resubmit is refused the same way instead of
// being answered with a job that will never run.
func TestServerQueueFullLeavesNoJob(t *testing.T) {
	srv := &Server{byID: make(map[string]*Job), queue: make(chan *Job)}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := smallSpec()
	job, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postSpec(t, ts, spec); code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full queue: %d, want 503", code)
	}
	if code, b := getBody(t, ts.URL+"/campaigns/"+job.ID()); code != http.StatusNotFound {
		t.Errorf("status of the refused campaign: %d, want 404\n%s", code, b)
	}
	code, b := getBody(t, ts.URL+"/campaigns")
	var list []Progress
	if err := json.Unmarshal(b, &list); code != http.StatusOK || err != nil || len(list) != 0 {
		t.Errorf("listing after a refused submit: %d %v\n%s", code, err, b)
	}
	if code, _ := postSpec(t, ts, spec); code != http.StatusServiceUnavailable {
		t.Errorf("resubmit to a full queue: %d, want 503", code)
	}
}

// TestServerQueueBound fills the queue behind a running campaign, which
// with no local execution never finishes: maxQueued distinct specs are
// accepted and wait, and the first submit past the bound gets 503 and
// registers nothing.
func TestServerQueueBound(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1, noLocalExec: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	withBase := func(base int64) Spec {
		spec := smallSpec()
		spec.Seeds.Base = base
		return spec
	}
	code, p := postSpec(t, ts, withBase(0))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	for p.Status != StatusRunning {
		time.Sleep(time.Millisecond)
		_, b := getBody(t, ts.URL+"/campaigns/"+p.ID)
		if err := json.Unmarshal(b, &p); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= maxQueued; i++ {
		if code, p := postSpec(t, ts, withBase(i)); code != http.StatusAccepted || p.Status != StatusQueued {
			t.Fatalf("queued submit %d: %d %s", i, code, p.Status)
		}
	}
	over := withBase(maxQueued + 1)
	if code, _ := postSpec(t, ts, over); code != http.StatusServiceUnavailable {
		t.Fatalf("submit past the bound: %d, want 503", code)
	}
	job, err := New(over, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if code, b := getBody(t, ts.URL+"/campaigns/"+job.ID()); code != http.StatusNotFound {
		t.Errorf("status of the refused campaign: %d, want 404\n%s", code, b)
	}
	code, b := getBody(t, ts.URL+"/campaigns")
	var list []Progress
	if err := json.Unmarshal(b, &list); code != http.StatusOK || err != nil || len(list) != 1+maxQueued {
		t.Errorf("listing after a refused submit: %d %v, %d campaigns, want %d", code, err, len(list), 1+maxQueued)
	}
}

func TestServerClosedRejectsSubmit(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	code, _ := postSpec(t, ts, smallSpec())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %d, want 503", code)
	}
}

// A panic outside foldShard — here in the lease clock, which every
// local worker's acquire reads — fails the job with the panic's text
// instead of ending the process: Execute returns it, Progress reports
// failed, and a Server running such a job keeps answering /healthz.
func TestPanicFailsJobNotProcess(t *testing.T) {
	clock := func() time.Time { panic("lease clock broke") }
	j, err := New(smallSpec(), Options{Jobs: 2, now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(); err == nil || !strings.Contains(err.Error(), "lease clock broke") {
		t.Fatalf("Execute = %v, want the panic's text", err)
	}
	if p := j.Progress(); p.Status != StatusFailed || !strings.Contains(p.Error, "lease clock broke") {
		t.Fatalf("status %v (%s), want failed with the panic's text", p.Status, p.Error)
	}

	srv := NewServerOpts(Options{Jobs: 1, now: clock})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, p := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if fin := waitDone(t, ts, p.ID); fin.Status != StatusFailed || !strings.Contains(fin.Error, "lease clock broke") {
		t.Fatalf("served job %v (%s), want failed with the panic's text", fin.Status, fin.Error)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d after a job panicked", code)
	}
}

// A campaign cancelled while it waits in the queue reports queued until
// dispatch reaches it, but its cancel is final: resubmitting it starts
// a fresh job, which runs to done, instead of answering 200 with the
// doomed one.
func TestServerResubmitAfterPendingCancel(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, long := postSpec(t, ts, oneCellSpec(1, 1<<30)) // runs until cancelled
	if code != http.StatusAccepted {
		t.Fatalf("submit long = %d", code)
	}
	code, small := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit small = %d", code)
	}
	postCancel(t, ts, small.ID)
	code, again := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted || again.ID != small.ID || again.Status != StatusQueued {
		t.Fatalf("resubmit after a pending cancel = %d %+v, want 202 and a fresh queued job", code, again)
	}
	postCancel(t, ts, long.ID)
	if fin := waitDone(t, ts, small.ID); fin.Status != StatusDone {
		t.Fatalf("resubmitted campaign ended %s (%s), want done", fin.Status, fin.Error)
	}
}

// A submit body past maxSpecBody is refused with 413.
func TestServerSubmitBodyLimit(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	body := `{"name":"` + strings.Repeat("a", maxSpecBody) + `","seeds":{"count":1}}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("submit of %d bytes = %d, want 413", len(body), rec.Code)
	}
}

// TestServerForgetsOldFinished ends maxFinished+2 campaigns: the two
// oldest answer 404 and leave the listing, which stays at maxFinished,
// and resubmitting the oldest, a done campaign, replays it from the
// store to the same result bytes.
func TestServerForgetsOldFinished(t *testing.T) {
	store, err := runcache.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(Options{Disk: store, Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := func(i int) Spec {
		s := oneCellSpec(1, 2)
		s.Seeds.Base = int64(2 * i)
		return s
	}
	ids := make([]string, maxFinished+2)
	var first []byte
	for i := range ids {
		code, p := postSpec(t, ts, spec(i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids[i] = p.ID
		if fin := waitDone(t, ts, p.ID); fin.Status != StatusDone {
			t.Fatalf("campaign %d ended %s (%s)", i, fin.Status, fin.Error)
		}
		if i == 0 {
			_, first = getBody(t, ts.URL+"/campaigns/"+p.ID+"/result")
		}
	}
	// dispatch forgets a job after its successor reports done, so wait.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if code, _ := getBody(t, ts.URL+"/campaigns/"+ids[1]); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s is still known after %d newer ones finished", ids[1], maxFinished)
		}
	}
	if code, _ := getBody(t, ts.URL+"/campaigns/"+ids[0]+"/result"); code != http.StatusNotFound {
		t.Errorf("oldest campaign's result = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/campaigns/"+ids[2]); code != http.StatusOK {
		t.Errorf("campaign %d = %d, want 200", 2, code)
	}
	var list []Progress
	if _, b := getBody(t, ts.URL+"/campaigns"); json.Unmarshal(b, &list) != nil || len(list) != maxFinished || list[0].ID != ids[2] {
		t.Fatalf("listing holds %d campaigns, want the newest %d:\n%s", len(list), maxFinished, b)
	}

	code, p := postSpec(t, ts, spec(0))
	if code != http.StatusAccepted || p.ID != ids[0] {
		t.Fatalf("resubmit of a forgotten campaign = %d %s, want 202 %s", code, p.ID, ids[0])
	}
	if fin := waitDone(t, ts, p.ID); fin.Status != StatusDone || fin.Simulated != 0 || fin.DiskHits != fin.TotalRuns {
		t.Fatalf("resubmitted campaign ended %s with %d simulated and %d disk hits of %d runs, want done from the store",
			fin.Status, fin.Simulated, fin.DiskHits, fin.TotalRuns)
	}
	if _, b := getBody(t, ts.URL+"/campaigns/"+p.ID+"/result"); !bytes.Equal(b, first) {
		t.Errorf("replayed result differs from the first run's:\n%s\nwant:\n%s", b, first)
	}
}

// A cancelled campaign replaced by a resubmission leaves the old job
// among the finished ones. Forgetting that old job must not forget the
// id, which names the newer attempt.
func TestServerRetireKeepsResubmission(t *testing.T) {
	srv := NewServerOpts(Options{Jobs: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var p Progress
	for attempt := 0; attempt < 2; attempt++ {
		var code int
		code, p = postSpec(t, ts, oneCellSpec(1, 1<<30)) // runs until cancelled
		if code != http.StatusAccepted {
			t.Fatalf("attempt %d = %d, want 202", attempt, code)
		}
		postCancel(t, ts, p.ID)
	}
	if fin := waitDone(t, ts, p.ID); fin.Status != StatusCancelled {
		t.Fatalf("second attempt ended %s, want cancelled", fin.Status)
	}
	// Both attempts and maxFinished-1 more campaigns end, so the first
	// attempt is forgotten and the second is the oldest one kept.
	for i := 1; i < maxFinished; i++ {
		s := oneCellSpec(1, 1)
		s.Seeds.Base = int64(i)
		_, q := postSpec(t, ts, s)
		waitDone(t, ts, q.ID)
	}
	srv.Close() // waits for dispatch to retire the last job
	if code, b := getBody(t, ts.URL+"/campaigns/"+p.ID); code != http.StatusOK {
		t.Fatalf("resubmitted campaign = %d, want 200 while it is among the newest %d\n%s", code, maxFinished, b)
	}
}
