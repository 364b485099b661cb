package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"sync"

	"repro/internal/runcache"
)

// RunCache memoizes Results across experiments. Sharing one cache
// between all the tables of a suite lets overlapping grids — shared
// baselines, repeated ablation arms — simulate each distinct run once.
// The first Result stored under a key wins. Concurrent misses of one
// key each simulate it, and every store after the first is counted as
// a duplicate; runs are pure functions of their key, so every caller
// gets the same Result either way.
type RunCache struct {
	mu                       sync.Mutex
	m                        map[runcache.Key]Result
	hits, misses, duplicates uint64
}

// NewRunCache returns an empty run cache that keeps every Result.
func NewRunCache() *RunCache { return &RunCache{m: make(map[runcache.Key]Result)} }

// Do returns the Result stored under k, or runs fn outside the lock
// and stores its Result unless another call stored k first. A
// panicking fn stores nothing and panics only in its own caller.
func (c *RunCache) Do(k runcache.Key, fn func() Result) Result {
	c.mu.Lock()
	if r, ok := c.m[k]; ok {
		c.hits++
		c.mu.Unlock()
		return r
	}
	c.misses++
	c.mu.Unlock()
	r := fn()
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.m[k]; ok {
		c.duplicates++
		return first
	}
	c.m[k] = r
	return r
}

// FlightStats reports hits, misses and duplicate simulations: misses
// whose Result another call of the same key had already stored.
func (c *RunCache) FlightStats() (hits, misses, duplicates uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.duplicates
}

// KeyVersion leads the scenario encoding that BaseKey digests, so every
// run key composed from a base key carries it. Bump it whenever the
// encoding, the key layout, the fields of a digested type, or the
// model's outputs change, so keys — and the results persisted under
// them by runcache.Store — from an old layout or an old simulator miss
// instead of replaying under a new meaning. TestCacheKeyGolden pins one
// key to force the bump for the encoding, and
// TestKeyVersionPinsModelOutputs in cmd/emptcpsim pins a digest of the
// quick goldens and a small campaign to force it for the model.
const KeyVersion = 4

// keyVersion is the version byte BaseKey writes: KeyVersion, except in
// tests that key runs as the next model would.
var keyVersion byte = KeyVersion

// Tags of the key encoding: one before every leaf and every composite.
const (
	tagBool byte = iota + 1
	tagInt
	tagFloat
	tagString
	tagNil    // nil pointer or interface
	tagPtr    // non-nil pointer; the pointee follows
	tagIface  // non-nil interface: its concrete type's package and name, then the value
	tagArray  // array: the length, then the elements
	tagStruct // struct: the field count, then the fields in order
)

// CacheKey digests everything a run's outcome depends on: the scenario's
// construction (device profile contents, link signature, RTTs, horizon,
// workload, controller overrides, app power), the protocol, and the run
// options (seed, tracing). It reports ok=false when the run is not
// cache-eligible: the scenario was built outside this package's library
// (no link signature, so the link-builder funcs are opaque), a Recorder
// observes the run's events in-line, or the protocol does not fit the
// key's one protocol byte.
//
// The key has two levels: BaseKey is a SHA-256 of the scenario, and
// RunKey composes a prefix of that digest with the protocol and the run
// options verbatim. Callers that run one scenario many times, such as
// the campaign grid, hash the scenario once and copy bytes per run. The
// per-run RNG is rebuilt from Seed, so equal keys imply bit-identical
// results; that is what lets the campaign engine key its disk store
// with it.
func CacheKey(sc Scenario, proto Protocol, opt Opts) (runcache.Key, bool) {
	base, ok := BaseKey(sc)
	if !ok {
		return runcache.Key{}, false
	}
	return RunKey(base, proto, opt)
}

// BaseKey digests a scenario: the SHA-256 of one canonical binary
// encoding, a version byte and then every Scenario input as a tagged
// leaf — floats by their IEEE bits, strings length-prefixed — from a
// reflective walk of the device profile, the controller override and
// the workload, which also records the workload's concrete type and
// whether each pointer is nil. No leaf is rendered through fmt or a
// String method, so any input difference changes the key. ok is false
// for a scenario built outside this package's library.
func BaseKey(sc Scenario) (runcache.Key, bool) {
	if sc.linkSig == "" {
		return runcache.Key{}, false
	}
	bp := keyBufs.Get().(*[]byte)
	b := append((*bp)[:0], keyVersion)
	b = appendString(b, sc.linkSig)
	b = appendString(b, sc.Name)
	b = appendValue(b, reflect.ValueOf(sc.Device))
	b = appendFloat(b, sc.WiFiRTT)
	b = appendFloat(b, sc.LTERTT)
	b = appendFloat(b, sc.Horizon)
	b = appendFloat(b, float64(sc.AppPower))
	b = appendValue(b, reflect.ValueOf(sc.CoreConfig))
	b = appendDynamic(b, reflect.ValueOf(sc.Work))
	k := runcache.Key(sha256.Sum256(b))
	*bp = b
	keyBufs.Put(bp)
	return k, true
}

// Where RunKey writes the run's tail over the base key, whose first 22
// bytes (176 bits of scenario digest) it keeps.
const (
	traceAt = 22
	protoAt = 23
	seedAt  = 24 // 8 bytes, little-endian, to the key's end
)

// RunKey completes the base key of a scenario with one run's tail
// without hashing it again: the key is the base key's first 22 bytes,
// the Trace flag as 0 or 1, the protocol as one byte and the seed as
// 8 little-endian bytes. Two runs of one scenario share the prefix and
// differ in the tail, and runs of two scenarios differ in the prefix
// unless their 176-bit digest prefixes collide. It reports ok=false
// when a Recorder observes the run or the protocol does not fit in one
// byte.
func RunKey(base runcache.Key, proto Protocol, opt Opts) (runcache.Key, bool) {
	if opt.Recorder != nil || uint(proto) > math.MaxUint8 {
		return runcache.Key{}, false
	}
	k := base
	k[traceAt] = 0
	if opt.Trace {
		k[traceAt] = 1
	}
	k[protoAt] = byte(proto)
	binary.LittleEndian.PutUint64(k[seedAt:], uint64(opt.Seed))
	return k, true
}

// keyBufs recycles encoding buffers. The walk below is recursive, which
// makes the compiler move even a local array buffer to the heap; pooling
// keeps a key at zero allocations.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

func appendWord(b []byte, tag byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, tag), x)
}

func appendFloat(b []byte, x float64) []byte { return appendWord(b, tagFloat, math.Float64bits(x)) }

func appendBool(b []byte, x bool) []byte {
	var bit byte
	if x {
		bit = 1
	}
	return append(b, tagBool, bit)
}

func appendString(b []byte, s string) []byte {
	return append(appendWord(b, tagString, uint64(len(s))), s...)
}

// appendDynamic encodes the contents of an interface: nil, or the
// concrete type's package path and name followed by the value.
func appendDynamic(b []byte, v reflect.Value) []byte {
	if !v.IsValid() {
		return append(b, tagNil)
	}
	t := v.Type()
	b = appendString(append(b, tagIface), t.PkgPath())
	b = appendString(b, t.String())
	return appendValue(b, v)
}

// appendValue walks v depth-first. It encodes the kinds the digested
// types are made of; any other kind — a func, map, channel, slice or
// nested interface — panics, so a digested type that grows one gets an
// explicit encoding instead of silently dropping out of the key.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		return appendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendWord(b, tagInt, uint64(v.Int()))
	case reflect.Float32, reflect.Float64:
		return appendFloat(b, v.Float())
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, tagNil)
		}
		return appendValue(append(b, tagPtr), v.Elem())
	case reflect.Array:
		n := v.Len()
		b = appendWord(b, tagArray, uint64(n))
		for i := 0; i < n; i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		n := v.NumField()
		b = appendWord(b, tagStruct, uint64(n))
		for i := 0; i < n; i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	default:
		panic("scenario: cache key cannot encode a " + v.Kind().String() + " of type " + v.Type().String())
	}
}
