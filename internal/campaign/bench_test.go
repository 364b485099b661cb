package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The replay path's per-run budget. runAt and cellAt are index
// arithmetic and a table read, in the nanoseconds; runKey is the key a
// replayed run hashes, grid.keyAt's one scenario.RunKey over the
// compiled base key. cacheKey is the full two-level key of one
// scenario, which the campaign path no longer computes per run. CI
// checks that runAt, runKey and cacheKey report 0 allocs/op.
func BenchmarkRunAtAndKey(b *testing.B) {
	g, err := compile(smallSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("runAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.runAt(uint64(i) % g.total)
		}
	})
	b.Run("cellAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.cellAt(uint64(i) % g.total)
		}
	})
	b.Run("cacheKey", func(b *testing.B) {
		sc, proto, seed, _ := g.runAt(0)
		for i := 0; i < b.N; i++ {
			scenario.CacheKey(sc, proto, scenario.Opts{Seed: seed})
		}
	})
	b.Run("runKey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.keyAt(uint64(i) % g.total)
		}
	})
}

// BenchmarkDistributedCampaign drives a cache-cold 10⁵-run campaign
// through the full HTTP coordinator, with the coordinator pinned to one
// local worker (-j 1) and zero or one remote Workers attached over the
// real lease protocol. On a multi-core host workers=2 approaches 2× the
// workers=1 throughput (two processes' worth of folding); on a
// single-core runner the two variants measure the same work plus the
// protocol overhead, which is the honest number such a machine can
// produce. Every iteration is a fresh server and a fresh campaign with
// no disk store, so nothing is ever replayed.
func BenchmarkDistributedCampaign(b *testing.B) {
	spec := Spec{
		Name:      "bench-distributed",
		WiFi:      []string{"bad"},
		LTE:       []string{"good"},
		Locations: []string{"wdc", "sng"},
		SizesMB:   []float64{0.25},
		Protocols: []string{"mptcp", "emptcp"},
		Seeds:     SeedRange{Base: 1, Count: 25_000}, // ×2×2 = 100k runs
		ShardSize: 1024,
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, remoteWorkers int) {
		for i := 0; i < b.N; i++ {
			srv := NewServerOpts(Options{Jobs: 1})
			ts := httptest.NewServer(srv.Handler())
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for w := 0; w < remoteWorkers; w++ {
				wk, err := NewWorker(WorkerOptions{
					Coordinator:  ts.URL,
					PollInterval: time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					wk.Run(ctx)
				}()
			}

			resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(specJSON))
			if err != nil {
				b.Fatal(err)
			}
			var p Progress
			json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit = %d", resp.StatusCode)
			}
			for p.Status != StatusDone {
				if p.Status == StatusFailed || p.Status == StatusCancelled {
					b.Fatalf("campaign %s: %v (%s)", p.ID, p.Status, p.Error)
				}
				time.Sleep(10 * time.Millisecond)
				resp, err := http.Get(ts.URL + "/campaigns/" + p.ID)
				if err != nil {
					b.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&p)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
			}

			cancel()
			wg.Wait()
			ts.Close()
			srv.Close()
		}
		b.ReportMetric(float64(spec.TotalRuns())*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 0) })
	b.Run("workers=2", func(b *testing.B) { run(b, 1) })
}
