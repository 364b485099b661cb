package runcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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
// chopped off the segment tail, and a last record whose length field
// claims more bytes than the file holds. Recovery must keep every
// intact record and truncate the rest.
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
				tornTailRecovery(t, tc.n, tc.pad, func(raw []byte, last int) []byte {
					return raw[:len(raw)-chop]
				})
			})
		}
	}
	// Recovery sizes no buffer from an untrusted length: 0xFFFFFFFC
	// once wrapped to a 0-byte buffer and panicked, and 1 GiB was
	// allocated before the short read failed.
	for _, n := range []uint32{0xFFFFFFFC, 1 << 30} {
		t.Run(fmt.Sprintf("length-%#x", n), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tornTailRecovery(t, 10, "", func(raw []byte, last int) []byte {
				binary.LittleEndian.PutUint32(raw[last+recHeaderSize-4:], n)
				return raw
			})
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
				t.Fatalf("recovery allocated %d MiB for a corrupt length", grew>>20)
			}
		})
	}
}

// tornTailRecovery writes n records, damages the segment with damage
// (given the raw bytes and the offset of the last record), and checks
// that reopening keeps the other n−1 and that the last key can be
// written again: the re-Put lands where recovery left the append
// position, so it fails unless that is the truncation point.
func tornTailRecovery(t *testing.T, n int, pad string, damage func(raw []byte, last int) []byte) {
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
	last := n - 1
	raw = damage(raw, len(raw)-(recHeaderSize+len(val(last))+4))
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Len() != last {
		t.Fatalf("after damaging the last record: Len=%d want %d", s2.Len(), last)
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
	if s.Len() != 0 {
		t.Fatal("nil store should be empty")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzStoreSegment damages a segment of intact records: it cuts the
// segment at an offset and appends arbitrary bytes. The records are the
// parts of vals between zero bytes. Recovery must not panic; it must
// serve bit-exact, and count, exactly the records that lie wholly
// before the first damaged byte (a damaged record passes only by
// forging its crc32); and a Put after reopening must survive another
// reopen.
func FuzzStoreSegment(f *testing.F) {
	badLen := func(n uint32) []byte {
		h := append(append([]byte{}, diskMagic[:]...), make([]byte, 32)...)
		return binary.LittleEndian.AppendUint32(h, n)
	}
	vals := []byte("alpha\x00\x00bravo-charlie\x00d\x00echo-foxtrot-golf")
	f.Add(vals, uint16(0xFFFF), []byte(nil))
	f.Add(vals, uint16(0xFFFF), badLen(0xFFFFFFFC))
	f.Add(vals, uint16(0xFFFF), append(badLen(1<<30), "short"...))
	f.Add(vals, uint16(recHeaderSize-4), []byte{0xFC, 0xFF, 0xFF, 0xFF})
	f.Add(vals, uint16(60), []byte(nil))
	f.Add(vals, uint16(0xFFFF), bytes.Repeat([]byte{0xFF}, 123))
	f.Fuzz(func(t *testing.T, vals []byte, cut uint16, tail []byte) {
		recs := bytes.Split(vals, []byte{0})
		if len(recs) > 64 {
			recs = recs[:64]
		}
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]int, len(recs)) // offset one past each record
		end := 0
		for i, v := range recs {
			if err := s.Put(testKey(i), v); err != nil {
				t.Fatal(err)
			}
			end += recHeaderSize + len(v) + 4
			ends[i] = end
		}
		s.Close()

		seg := filepath.Join(dir, "cache-000001.seg")
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		damaged := raw
		if int(cut) < len(raw) {
			damaged = raw[:cut:cut]
		}
		damaged = append(damaged, tail...)
		if err := os.WriteFile(seg, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		firstBad := 0
		for firstBad < len(raw) && firstBad < len(damaged) && raw[firstBad] == damaged[firstBad] {
			firstBad++
		}
		intact := 0
		for intact < len(recs) && ends[intact] <= firstBad {
			intact++
		}

		check := func(s *Store, extra int) {
			t.Helper()
			if s.Len() != intact+extra {
				t.Fatalf("Len=%d want %d intact records + %d", s.Len(), intact, extra)
			}
			for i := 0; i < intact; i++ {
				v, ok, err := s.Get(testKey(i))
				if err != nil || !ok || !bytes.Equal(v, recs[i]) {
					t.Fatalf("intact record %d: %q ok=%v err=%v, want %q", i, v, ok, err, recs[i])
				}
			}
		}
		s2, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(s2, 0)
		fresh := testKey(1 << 20)
		if err := s2.Put(fresh, []byte("after recovery")); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s3.Close()
		check(s3, 1)
		if v, ok, err := s3.Get(fresh); err != nil || !ok || string(v) != "after recovery" {
			t.Fatalf("put after recovery lost on reopen: %q ok=%v err=%v", v, ok, err)
		}
	})
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
