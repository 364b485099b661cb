package exp

import (
	"testing"

	"repro/internal/scenario"
)

// TestCacheGoldenOutput is the run-cache golden test: every experiment
// must render byte-identical text and CSV with the cache disabled, with
// a cold shared cache, and when served entirely from cache hits — at
// Jobs 1 and Jobs 4. The shared cache crosses experiment boundaries,
// exercising the overlapping-grid deduplication the cache exists for.
func TestCacheGoldenOutput(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		plain := Config{Jobs: jobs, Quick: true}
		cached := plain
		cached.Cache = scenario.NewRunCache()
		for _, e := range All() {
			want := e.Run(plain)
			for _, pass := range []string{"cold-cache", "cache-hit"} {
				got := e.Run(cached)
				if got.String() != want.String() {
					t.Errorf("jobs=%d %s: %s output differs from uncached", jobs, e.ID, pass)
				}
				if got.CSV() != want.CSV() {
					t.Errorf("jobs=%d %s: %s CSV differs from uncached", jobs, e.ID, pass)
				}
			}
		}
		if hits, _ := cached.Cache.Stats(); hits == 0 {
			t.Errorf("jobs=%d: cache never hit; the golden test is not exercising memoization", jobs)
		}
	}
}
