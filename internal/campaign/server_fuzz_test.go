package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/runcache"
	"repro/internal/scenario"
)

// fixedMemoryBudget bounds what one accepted job holds whatever its
// run count: the running total's cells, the compiled scenarios and the
// key memo. A spec Validate accepts needs at most 1,792 cells, 768
// scenarios and maxMemoRuns keys.
const fixedMemoryBudget = 4 << 20

// fixedMemory computes a normalised spec's fixed memory from its list
// lengths and run counts alone, allocating none of it.
func fixedMemory(s Spec) uint64 {
	grid := uint64(len(s.WiFi)) * uint64(len(s.LTE)) * uint64(len(s.SizesMB))
	cells := grid * uint64(len(s.Protocols))
	scens := grid * uint64(len(s.Locations))
	var memo uint64
	if s.Replicate > 1 {
		memo = min(s.TotalRuns()/uint64(s.Replicate), maxMemoRuns)
	}
	return cells*uint64(unsafe.Sizeof(cellAcc{})) +
		scens*uint64(unsafe.Sizeof(compiledScenario{})) +
		memo*uint64(unsafe.Sizeof(runcache.Key{}))
}

var (
	fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
		http.MethodHead, http.MethodPatch, http.MethodOptions}
	fuzzRoutes = []string{"/campaigns", "/campaigns/{id}", "/campaigns/{id}/spec",
		"/campaigns/{id}/result", "/campaigns/{id}/cancel", "/lease",
		"/campaigns/{id}/shards/{shard}", "/campaigns/{id}/shards/{shard}/renew", "/statz"}
)

// FuzzServerHandler drives a coordinator's handler with a spec submit,
// a lease, and one arbitrary request: any method on the submit, status,
// spec, result, cancel, lease, shard, renew or stats route, with an
// arbitrary id (empty means the submitted campaign's), shard segment,
// query and body, carrying the lease's token. The coordinator simulates
// nothing itself, so shards merge only through the handler. Nothing may
// panic in any goroutine, no answer may be a 5xx, every accepted
// campaign must be in a terminal state once the server closes with
// Simulated + DiskHits = RunsDone ≤ TotalRuns, and each accepted job's
// fixed memory must fit fixedMemoryBudget.
func FuzzServerHandler(f *testing.F) {
	small, err := json.Marshal(smallSpec())
	if err != nil {
		f.Fatal(err)
	}
	// A one-shard campaign and its only shard's frame: posting it
	// finishes the campaign.
	oneShard := smallSpec()
	oneShard.ShardSize = 20
	one, err := json.Marshal(oneShard)
	if err != nil {
		f.Fatal(err)
	}
	j, err := New(oneShard, Options{Jobs: 1})
	if err != nil {
		f.Fatal(err)
	}
	rep, err := j.exec.foldShard(0, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	digest, err := oneShard.Digest()
	if err != nil {
		f.Fatal(err)
	}
	frame := encodeShardAgg(scenario.KeyVersion, digest, 0, rep.runs, rep.simulated, rep.diskHits, rep.agg)
	huge, err := json.Marshal(oneCellSpec(2, 1<<46))
	if err != nil {
		f.Fatal(err)
	}
	kv := "model_version=" + strconv.Itoa(scenario.KeyVersion)
	for _, s := range []struct {
		spec             []byte
		method, route    uint8
		id, shard, query string
		body             []byte
	}{
		{small, 0, 1, "", "", "", nil},
		{small, 1, 5, "", "", kv + "&worker=w", nil},
		{small, 1, 7, "", "0", "", nil},
		{small, 1, 4, "", "", "", nil},
		{small, 0, 3, "", "", "", nil},
		{one, 1, 6, "", "0", "", frame},
		{one, 1, 6, "", "1", "", frame},
		{huge, 0, 8, "", "", "", nil},
		{[]byte(`{"seeds":{"count":1}}`), 1, 0, "", "", "", []byte(`{"wifi":["good","GOOD"],"seeds":{"count":1}}`)},
		{[]byte("{"), 2, 6, "nope", "-1", "x=%zz", []byte("garbage")},
	} {
		f.Add(s.spec, s.method, s.route, s.id, s.shard, s.query, s.body)
	}

	f.Fuzz(func(t *testing.T, spec []byte, method, route uint8, id, shard, query string, body []byte) {
		srv := NewServerOpts(Options{Jobs: 1, noLocalExec: true})
		h := srv.Handler()
		var accepted []string
		do := func(req *http.Request) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s = %d: %s", req.Method, req.URL, rec.Code, rec.Body.Bytes())
			}
			if req.Method == http.MethodPost && req.URL.Path == "/campaigns" &&
				(rec.Code == http.StatusOK || rec.Code == http.StatusAccepted) {
				var p Progress
				if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
					t.Fatalf("submit answered %d with %v", rec.Code, err)
				}
				srv.mu.Lock()
				job := srv.byID[p.ID]
				srv.mu.Unlock()
				if m := fixedMemory(job.Spec()); m > fixedMemoryBudget {
					t.Fatalf("accepted spec holds %d B of fixed memory, budget %d", m, fixedMemoryBudget)
				}
				accepted = append(accepted, p.ID)
			}
			return rec
		}

		do(httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(spec)))
		var grant LeaseGrant
		if len(accepted) > 0 {
			if id == "" {
				id = accepted[0]
			}
			// The dispatcher starts the job at once; leases wait for it.
			srv.mu.Lock()
			job := srv.byID[accepted[0]]
			srv.mu.Unlock()
			for job.summary().Status == StatusQueued {
				runtime.Gosched()
			}
			rec := do(httptest.NewRequest(http.MethodPost, "/lease?"+kv, nil))
			if rec.Code == http.StatusOK {
				json.Unmarshal(rec.Body.Bytes(), &grant)
			}
		}
		path := strings.NewReplacer("{id}", url.PathEscape(id), "{shard}", url.PathEscape(shard)).
			Replace(fuzzRoutes[int(route)%len(fuzzRoutes)])
		req, err := http.NewRequest(fuzzMethods[int(method)%len(fuzzMethods)], path, bytes.NewReader(body))
		if err == nil {
			req.URL.RawQuery = query
			req.Header.Set("X-Lease-Token", grant.Token)
			do(req)
		}

		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, id := range accepted {
			p := srv.byID[id].summary()
			switch p.Status {
			case StatusDone, StatusFailed, StatusCancelled:
			default:
				t.Fatalf("campaign %s is %s after Close", id, p.Status)
			}
			if p.Simulated+p.DiskHits != p.RunsDone || p.RunsDone > p.TotalRuns {
				t.Fatalf("campaign %s counts %d simulated and %d disk hits of %d runs done, %d total",
					id, p.Simulated, p.DiskHits, p.RunsDone, p.TotalRuns)
			}
		}
	})
}
