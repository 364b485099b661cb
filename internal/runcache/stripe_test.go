package runcache_test

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// wildKeys keys every run of a wild grid as the campaign grid does, with
// one scenario.RunKey over each scenario's BaseKey: every WiFi and LTE
// quality and location, each of sizes and protos, and seeds
// [base, base+n).
func wildKeys(t *testing.T, sizes []float64, protos []scenario.Protocol, base int64, n int) []runcache.Key {
	t.Helper()
	dev := energy.GalaxyS3()
	qualities := []scenario.Quality{scenario.Bad, scenario.Good}
	var keys []runcache.Key
	for _, wq := range qualities {
		for _, lq := range qualities {
			for _, mb := range sizes {
				work := workload.FileDownload{Size: units.ByteSize(mb * float64(units.MB))}
				for _, loc := range []scenario.ServerLoc{scenario.WDC, scenario.AMS, scenario.SNG} {
					sc := scenario.Wild(dev, wq, lq, loc, work)
					bk, ok := scenario.BaseKey(sc)
					if !ok {
						t.Fatalf("%s has no base key", sc.Name)
					}
					for _, proto := range protos {
						for seed := base; seed < base+int64(n); seed++ {
							k, _ := scenario.RunKey(bk, proto, scenario.Opts{Seed: seed})
							keys = append(keys, k)
						}
					}
				}
			}
		}
	}
	return keys
}

// TestStripesFitPresize: composed run keys share their leading bytes
// within a scenario and their trailing bytes within a seed, yet no index
// stripe holds more of them than the capacity the store presizes it
// with, so rebuilding the index of a store of one record length never
// grows a map. Two key sets: the benchmark's warm grid (24 scenarios ×
// 3 protocols × 200 seeds, at each workload seed of a perfbench run)
// and one seed of the largest spec shape (768 scenarios × 7 protocols).
func TestStripesFitPresize(t *testing.T) {
	check := func(name string, keys []runcache.Key) {
		t.Helper()
		var load [64]int
		for _, k := range keys {
			load[runcache.Stripe(k)]++
		}
		limit := runcache.Presize(int64(len(keys)))
		for i, n := range load {
			if n > limit {
				t.Errorf("%s: stripe %d holds %d of %d keys, more than the presize %d", name, i, n, len(keys), limit)
			}
		}
	}
	trio := []scenario.Protocol{scenario.MPTCP, scenario.EMPTCP, scenario.TCPWiFi}
	for seed := int64(0); seed < 30; seed++ {
		check("warm grid", wildKeys(t, []float64{0.25, 16}, trio, seed*200, 200))
	}
	sizes := make([]float64, 64)
	for i := range sizes {
		sizes[i] = float64(i+1) / 4
	}
	check("largest shape", wildKeys(t, sizes, scenario.AllProtocols, 1, 1))
}
