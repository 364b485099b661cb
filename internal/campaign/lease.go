package campaign

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The shard-lease protocol is the distribution unit of a campaign: the
// coordinator partitions the run grid into the same spec-derived shards
// the single-process executor uses, and hands them out as leases to
// remote `emptcpsim worker` processes. Its own local workers take
// shards from the same table without a lease: they can only die with
// the coordinator, so there is nothing to expire. A lease expires if its
// holder stops renewing (worker death), after which the shard is
// reassigned; a shard's first completion wins and any later duplicate
// is dropped. Because every shard aggregate is a pure function of the
// spec (same runs, same in-shard fold order, bit-exact codec), the
// merged campaign bytes are identical no matter which worker computed
// which shard, how leases expired, or how many duplicates raced.

// DefaultLeaseTTL is the shard-lease expiry when Options.LeaseTTL is
// zero: long enough that a worker grinding through a cache-cold shard
// with a renewal heartbeat at TTL/3 never loses it, short enough that a
// SIGKILLed worker's shards reassign within seconds.
const DefaultLeaseTTL = 30 * time.Second

// lease is one outstanding shard assignment.
type lease struct {
	token   string
	worker  string
	expires time.Time
}

// LeaseGrant is the coordinator's answer to a lease request, JSON-shaped
// for the HTTP protocol. ModelVersion is the coordinator's
// scenario.KeyVersion: a worker built from another model refuses the
// grant before it simulates.
type LeaseGrant struct {
	Campaign     string `json:"campaign"`
	Shard        uint64 `json:"shard"`
	Lo           uint64 `json:"lo"` // first run index of the shard
	Hi           uint64 `json:"hi"` // one past the last run index
	Token        string `json:"token"`
	TTLMs        int64  `json:"ttl_ms"`
	ModelVersion int    `json:"model_version"`
}

// LeaseState is the lease table's observable snapshot, published by
// Progress and /statz so distributed runs are debuggable without log
// scraping. Leased and Workers count remote leases only: local folds
// hold none.
type LeaseState struct {
	Shards     uint64 `json:"shards"`
	Done       uint64 `json:"done"`
	Leased     uint64 `json:"leased"`
	Expired    uint64 `json:"expired"`    // lifetime count of lease expiries
	Duplicates uint64 `json:"duplicates"` // completions dropped first-write-wins
	Workers    int    `json:"workers"`    // distinct workers ever granted a lease
}

// leaseTable is a job's one record of shard state: which shards are
// handed out, which remote worker holds which, and which are done. A
// shard is done if and only if it is below merged or parked in pending.
// complete keeps a shard's first completion and folds completed shards
// into total in shard order 0,1,2,…, whatever order they arrive in —
// the whole byte-identical-at-any-shape guarantee lives there — so the
// table holds an entry only for a shard that is leased, queued for
// reassignment, folded locally or waiting on an earlier one: O(pending
// window), never O(shards). All methods are safe for concurrent use;
// time is injected so tests can drive expiry deterministically.
type leaseTable struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time

	n       uint64                  // total shards
	next    uint64                  // next never-assigned shard
	leases  map[uint64]*lease       // outstanding remote leases, keyed by shard
	folds   map[uint64]*atomic.Bool // local folds' done flags, keyed by shard
	free    []uint64                // expired shards awaiting reassignment, ascending
	seq     uint64                  // token counter
	workers map[string]bool

	total    *agg            // shards [0, merged), folded in shard order
	merged   uint64          // shards below it are done and folded into total
	pending  map[uint64]*agg // done shards above merged, awaiting the gap
	finished chan struct{}   // closed when the last shard merges

	expired    uint64
	duplicates uint64
}

func newLeaseTable(nShards uint64, cells int, ttl time.Duration, now func() time.Time) *leaseTable {
	if now == nil {
		now = time.Now
	}
	return &leaseTable{
		ttl:      ttl,
		now:      now,
		n:        nShards,
		leases:   make(map[uint64]*lease),
		folds:    make(map[uint64]*atomic.Bool),
		workers:  make(map[string]bool),
		total:    newAgg(cells),
		pending:  make(map[uint64]*agg),
		finished: make(chan struct{}),
	}
}

// doneLocked reports whether shard s has completed. Callers hold mu.
func (lt *leaseTable) doneLocked(s uint64) bool {
	_, parked := lt.pending[s]
	return s < lt.merged || parked
}

// reapLocked moves every expired lease to the reassignment queue,
// keeping free ascending. Callers hold mu.
func (lt *leaseTable) reapLocked() {
	t := lt.now()
	for s, l := range lt.leases {
		if t.After(l.expires) {
			lt.expired++
			delete(lt.leases, s)
			i, _ := slices.BinarySearch(lt.free, s)
			lt.free = slices.Insert(lt.free, i, s)
		}
	}
}

// take hands out the lowest-index shard nobody holds, preferring
// expired reassignments over fresh shards so the in-order merge window
// stays small, and records no lease: the coordinator's own folds take
// shards this way. done turns true once the shard completes, which a
// fold polls to stop early when a remote worker whose lease expired
// completes the shard after all. ok is false when every remaining shard
// is done, leased out or being folded — the caller waits (a lease may
// expire) or, once finished is closed, stops.
func (lt *leaseTable) take() (shard uint64, done *atomic.Bool, ok bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if shard, ok = lt.takeLocked(); ok {
		done = new(atomic.Bool)
		lt.folds[shard] = done
	}
	return shard, done, ok
}

// takeLocked is take for callers that hold mu.
func (lt *leaseTable) takeLocked() (shard uint64, ok bool) {
	lt.reapLocked()
	for !ok && len(lt.free) > 0 {
		shard, lt.free = lt.free[0], lt.free[1:]
		ok = !lt.doneLocked(shard)
	}
	for !ok && lt.next < lt.n {
		shard = lt.next
		lt.next++
		ok = !lt.doneLocked(shard)
	}
	return shard, ok
}

// acquire takes a shard for a remote worker and leases it: the worker
// must renew within the TTL or lose the shard to reassignment.
func (lt *leaseTable) acquire(worker string) (shard uint64, token string, ok bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if shard, ok = lt.takeLocked(); !ok {
		return 0, "", false
	}
	lt.seq++
	token = fmt.Sprintf("s%d.%d", shard, lt.seq)
	lt.leases[shard] = &lease{token: token, worker: worker, expires: lt.now().Add(lt.ttl)}
	lt.workers[worker] = true
	return shard, token, true
}

// renew extends the lease's deadline. It fails when the lease has
// already expired and been reassigned (token mismatch), or the shard
// completed, which drops its lease — the holder should abandon the
// shard in both cases.
func (lt *leaseTable) renew(shard uint64, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.leases[shard]
	if !ok || l.token != token {
		return false
	}
	l.expires = lt.now().Add(lt.ttl)
	return true
}

// complete records shard's aggregate a, first-write-wins: the first
// completion is accepted even if its lease already expired (the data is
// a pure function of the spec, so it is exactly the bytes any other
// worker would produce), and every later completion reports dup=true
// and is dropped. An accepted shard parks in pending until every
// earlier shard has merged, then folds into total; pending holds
// fixed-size aggregates only, never per-run results. complete closes
// finished when the last shard merges.
func (lt *leaseTable) complete(shard uint64, a *agg) (dup bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.doneLocked(shard) {
		lt.duplicates++
		return true
	}
	delete(lt.leases, shard)
	if f := lt.folds[shard]; f != nil {
		f.Store(true)
		delete(lt.folds, shard)
	}
	lt.pending[shard] = a
	for nxt, ok := lt.pending[lt.merged]; ok; nxt, ok = lt.pending[lt.merged] {
		delete(lt.pending, lt.merged)
		lt.total.merge(nxt)
		if lt.merged++; lt.merged == lt.n {
			lt.free = nil // every queued shard is done
			close(lt.finished)
		}
	}
	return false
}

// aggregates projects the merged prefix of shards: exact for the runs
// it counts, and the campaign's result once finished is closed.
func (lt *leaseTable) aggregates(g *grid) (Aggregates, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return g.aggregates(lt.total)
}

func (lt *leaseTable) state() LeaseState {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return LeaseState{
		Shards:     lt.n,
		Done:       lt.merged + uint64(len(lt.pending)),
		Leased:     uint64(len(lt.leases)),
		Expired:    lt.expired,
		Duplicates: lt.duplicates,
		Workers:    len(lt.workers),
	}
}
