package runcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testKey(i int) Key {
	var k Key
	k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
	return k
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len=%d want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("Get(%d)=%q want %q", i, v, want)
		}
	}
	if _, ok, _ := s.Get(testKey(n + 5)); ok {
		t.Fatal("absent key reported present")
	}
	// Duplicate put is a no-op.
	if err := s.Put(testKey(0), []byte("different")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get(testKey(0))
	if string(v) != "value-0" {
		t.Fatalf("duplicate put overwrote: %q", v)
	}
	gets, hits, puts := s.DiskStats()
	if puts != n {
		t.Errorf("puts=%d want %d", puts, n)
	}
	if gets != n+2 || hits != n+1 {
		t.Errorf("gets=%d hits=%d want %d and %d", gets, hits, n+2, n+1)
	}
}

func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(testKey(i), bytes.Repeat([]byte{byte(i)}, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 50 {
		t.Fatalf("reopened Len=%d want 50", s2.Len())
	}
	for i := 0; i < 50; i++ {
		v, ok, err := s2.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("reopened Get(%d): ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, i+1)) {
			t.Fatalf("reopened Get(%d) corrupted", i)
		}
	}
	// The reopened store keeps appending to the same key space.
	if err := s2.Put(testKey(1000), []byte("after reopen")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := s2.Get(testKey(1000))
	if !ok || string(v) != "after reopen" {
		t.Fatal("append after reopen failed")
	}
}

// TestDiskStoreTornTailRecovery simulates a crash mid-append: bytes
// chopped off the segment tail, and garbage appended after valid
// records. Recovery must keep every intact record and truncate the rest.
func TestDiskStoreTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		pad  string
	}{
		{"chop-%d", 10, ""},
		// 2,000 records of ~150 bytes (~300 KB) make the index rebuild
		// cross several refills of its read buffer.
		{"records-2000-chop-%d", 2000, strings.Repeat("x", 100)},
	} {
		for _, chop := range []int{1, 3, 7, 20, 39} {
			t.Run(fmt.Sprintf(tc.name, chop), func(t *testing.T) {
				tornTailRecovery(t, tc.n, chop, tc.pad)
			})
		}
	}
}

// tornTailRecovery writes n records, chops chop bytes off the last one,
// and checks that reopening keeps the other n−1 and that the last key
// can be written again: the re-Put lands where recovery left the
// append position, so it fails unless that is the truncation point.
func tornTailRecovery(t *testing.T, n, chop int, pad string) {
	val := func(i int) string { return fmt.Sprintf("v%02d", i) + pad }
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := filepath.Join(dir, "cache-000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-chop], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	last := n - 1
	if s2.Len() != last {
		t.Fatalf("after chopping %dB of the last record: Len=%d want %d", chop, s2.Len(), last)
	}
	for i := 0; i < last; i++ {
		v, ok, err := s2.Get(testKey(i))
		if err != nil || !ok || string(v) != val(i) {
			t.Fatalf("record %d lost in recovery: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	// The truncated key is writable again.
	if err := s2.Put(testKey(last), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get(testKey(last)); !ok || string(v) != "rewritten" {
		t.Fatal("rewrite after recovery failed")
	}
}

func TestDiskStoreGarbageTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), []byte("good"))
	}
	s.Close()
	seg := filepath.Join(dir, "cache-000001.seg")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte{0xFF}, 123)) // wrong magic → truncated
	f.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("Len=%d want 5", s2.Len())
	}
}

// TestDiskStoreCorruptValueDropped flips a bit inside a record's value;
// the crc must reject it (and, being append-only, everything after it).
func TestDiskStoreCorruptValueDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(0), []byte("aaaa"))
	s.Put(testKey(1), []byte("bbbb"))
	s.Close()
	seg := filepath.Join(dir, "cache-000001.seg")
	raw, _ := os.ReadFile(seg)
	raw[recHeaderSize+1] ^= 0x01 // corrupt record 0's value
	os.WriteFile(seg, raw, 0o644)

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("Len=%d want 0 (corruption truncates from the bad record)", s2.Len())
	}
}

// TestDiskStoreMidSegmentCorruptionRecovery flips a bit in a record in
// the MIDDLE of a segment, with more good records after it in the same
// segment and a whole later segment behind that. The store is
// append-only, so recovery cannot resynchronise past a bad crc: it must
// drop the corrupt record and every record after it in that segment,
// keep the later segment intact, and accept first-write-wins re-appends
// of the dropped keys.
func TestDiskStoreMidSegmentCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: records 0..7. Segment 2: records 8..11.
	for i := 0; i < 8; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.segMu.Lock()
	err = s.rotateLocked()
	s.segMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip one value bit in record 3 of segment 1. Every record here is
	// recHeaderSize + 3 (value) + 4 (crc) bytes.
	seg := filepath.Join(dir, "cache-000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := recHeaderSize + 3 + 4
	raw[3*recSize+recHeaderSize+1] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()

	// Records 0..2 survive, 3..7 are gone, segment 2's 8..11 survive.
	if s2.Len() != 7 {
		t.Fatalf("Len=%d want 7 (3 before the bad record + 4 in the next segment)", s2.Len())
	}
	for i := 0; i < 12; i++ {
		v, ok, err := s2.Get(testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		wantOK := i < 3 || i >= 8
		if ok != wantOK {
			t.Errorf("record %d: present=%v want %v", i, ok, wantOK)
		}
		if ok && string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("record %d: %q", i, v)
		}
	}

	// The dropped keys re-append (first write wins again), and a put of a
	// surviving key stays a no-op.
	for i := 3; i < 8; i++ {
		if err := s2.Put(testKey(i), []byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Put(testKey(0), []byte("clobber")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get(testKey(0)); !ok || string(v) != "v00" {
		t.Fatalf("surviving key overwritten: %q", v)
	}
	if v, ok, _ := s2.Get(testKey(5)); !ok || string(v) != "r05" {
		t.Fatalf("re-appended key not readable: %q ok=%v", v, ok)
	}
	s2.Close()

	// A third open sees the repaired state in full.
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 12 {
		t.Fatalf("after repair Len=%d want 12", s3.Len())
	}
	if v, ok, _ := s3.Get(testKey(6)); !ok || string(v) != "r06" {
		t.Fatalf("repaired record lost on reopen: %q ok=%v", v, ok)
	}
}

func TestDiskStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := testKey(i) // all workers collide on the same keys
				if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := s.Get(k)
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("concurrent get %d: %q ok=%v err=%v", i, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != perWorker {
		t.Fatalf("Len=%d want %d", s.Len(), perWorker)
	}
}

func TestDiskStoreNilSafe(t *testing.T) {
	var s *Store
	if err := s.Put(testKey(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey(1)); ok || err != nil {
		t.Fatal("nil store should miss")
	}
	if s.Has(testKey(1)) || s.Len() != 0 {
		t.Fatal("nil store should be empty")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightSingleFlight(t *testing.T) {
	g := NewFlight[int]()
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers = 16
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v := g.Do(testKey(1), func() int {
				computes.Add(1)
				return 7
			})
			if v != 7 {
				t.Errorf("got %d", v)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n < 1 || n > workers {
		t.Fatalf("computes=%d", n)
	}
	// After the flight lands the key is forgotten: a fresh Do recomputes.
	before := computes.Load()
	g.Do(testKey(1), func() int { computes.Add(1); return 7 })
	if computes.Load() != before+1 {
		t.Fatal("landed flight should not retain its result")
	}
}

func TestFlightPanicPropagatesAndClears(t *testing.T) {
	g := NewFlight[int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		g.Do(testKey(2), func() int { panic("boom") })
	}()
	// The failed flight must not poison later calls.
	if v := g.Do(testKey(2), func() int { return 3 }); v != 3 {
		t.Fatalf("got %d after panic, want 3", v)
	}
}

// BenchmarkStoreGetParallel measures concurrent Get throughput — the
// distributed-campaign replay pattern, where every worker goroutine
// hammers the store with key lookups + positioned value reads. The
// striped index and lock-free segment snapshot keep parallel readers
// off each other's locks; before the striping, every Get serialised on
// one store-wide mutex.
func BenchmarkStoreGetParallel(b *testing.B) {
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 4096
	val := bytes.Repeat([]byte{0xA5}, 128) // ~a campaign result record
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			v, ok, err := s.Get(testKey(i % n))
			if err != nil || !ok || len(v) != len(val) {
				b.Errorf("Get: ok=%v err=%v", ok, err)
				return
			}
			i++
		}
	})
}

// BenchmarkStoreGetSerial is the single-goroutine baseline for the
// parallel benchmark above.
func BenchmarkStoreGetSerial(b *testing.B) {
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 4096
	val := bytes.Repeat([]byte{0xA5}, 128)
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := s.Get(testKey(i % n))
		if err != nil || !ok || len(v) != len(val) {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}
