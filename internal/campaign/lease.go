package campaign

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The shard-lease protocol is the distribution unit of a campaign: the
// coordinator partitions the run grid into the same spec-derived shards
// the single-process executor uses, and hands them out as leases — to
// its own local workers and to remote `emptcpsim worker` processes
// alike (the coordinator is just worker #0). A lease expires if its
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
// scraping.
type LeaseState struct {
	Shards     uint64 `json:"shards"`
	Done       uint64 `json:"done"`
	Leased     uint64 `json:"leased"`
	Expired    uint64 `json:"expired"`    // lifetime count of lease expiries
	Duplicates uint64 `json:"duplicates"` // completions dropped first-write-wins
	Workers    int    `json:"workers"`    // distinct workers ever granted a lease
}

// leaseTable tracks shard ownership for one job. All methods are
// safe for concurrent use; time is injected so tests can drive expiry
// deterministically.
type leaseTable struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time

	n       uint64            // total shards
	next    uint64            // next never-assigned shard
	leases  map[uint64]*lease // outstanding, keyed by shard
	done    map[uint64]bool   // completed shards
	free    []uint64          // expired shards awaiting reassignment, ascending
	seq     uint64            // token counter
	workers map[string]bool

	expired    uint64
	duplicates uint64
}

func newLeaseTable(nShards uint64, ttl time.Duration, now func() time.Time) *leaseTable {
	if now == nil {
		now = time.Now
	}
	return &leaseTable{
		ttl:     ttl,
		now:     now,
		n:       nShards,
		leases:  make(map[uint64]*lease),
		done:    make(map[uint64]bool),
		workers: make(map[string]bool),
	}
}

// reapLocked moves every expired lease to the reassignment queue.
// Callers hold mu.
func (lt *leaseTable) reapLocked() {
	t := lt.now()
	for s, l := range lt.leases {
		if t.After(l.expires) {
			delete(lt.leases, s)
			lt.expired++
			i := sort.Search(len(lt.free), func(i int) bool { return lt.free[i] >= s })
			lt.free = append(lt.free, 0)
			copy(lt.free[i+1:], lt.free[i:])
			lt.free[i] = s
		}
	}
}

// acquire grants the lowest-index unowned shard to worker, preferring
// expired reassignments over fresh shards so the coordinator's in-order
// merge window stays small. ok is false when every remaining shard is
// done or leased out — the caller either waits (a lease may expire) or,
// if allDone, stops.
func (lt *leaseTable) acquire(worker string) (shard uint64, token string, ok bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.reapLocked()
	for len(lt.free) > 0 {
		shard, lt.free = lt.free[0], lt.free[1:]
		if !lt.done[shard] {
			ok = true
			break
		}
	}
	if !ok {
		for lt.next < lt.n {
			shard = lt.next
			lt.next++
			if !lt.done[shard] {
				ok = true
				break
			}
		}
	}
	if !ok {
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
// completed — the holder should abandon the shard in both cases.
func (lt *leaseTable) renew(shard uint64, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.leases[shard]
	if !ok || l.token != token || lt.done[shard] {
		return false
	}
	l.expires = lt.now().Add(lt.ttl)
	return true
}

// complete marks the shard done, first-write-wins: the first completion
// is accepted even if its lease already expired (the data is a pure
// function of the spec, so it is exactly the bytes any other worker
// would produce), and every later completion reports dup=true and must
// be dropped by the caller.
func (lt *leaseTable) complete(shard uint64) (dup bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.done[shard] {
		lt.duplicates++
		return true
	}
	lt.done[shard] = true
	delete(lt.leases, shard)
	return false
}

// release returns an unfinished shard to the queue immediately (local
// worker stopping mid-shard on cancel) instead of waiting out the TTL.
func (lt *leaseTable) release(shard uint64, token string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	l, ok := lt.leases[shard]
	if !ok || l.token != token {
		return
	}
	delete(lt.leases, shard)
	i := sort.Search(len(lt.free), func(i int) bool { return lt.free[i] >= shard })
	lt.free = append(lt.free, 0)
	copy(lt.free[i+1:], lt.free[i:])
	lt.free[i] = shard
}

// allDone reports whether every shard has completed.
func (lt *leaseTable) allDone() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return uint64(len(lt.done)) == lt.n
}

func (lt *leaseTable) state() LeaseState {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return LeaseState{
		Shards:     lt.n,
		Done:       uint64(len(lt.done)),
		Leased:     uint64(len(lt.leases)),
		Expired:    lt.expired,
		Duplicates: lt.duplicates,
		Workers:    len(lt.workers),
	}
}
