package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
		// cross several of its blocks.
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

// recVal is a test value of n bytes that differs by key and by salt.
func recVal(i, n, salt int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i*31 + j*7 + salt)
	}
	return v
}

// checkGet asserts that get serves want for key i, or misses when want
// is nil.
func checkGet(t *testing.T, via string, get func(Key) ([]byte, bool, error), i int, want []byte) {
	t.Helper()
	v, ok, err := get(testKey(i))
	if err != nil || ok != (want != nil) || !bytes.Equal(v, want) {
		t.Fatalf("%s(%d): %d bytes ok=%v err=%v, want %d bytes present=%v", via, i, len(v), ok, err, len(want), want != nil)
	}
}

// TestDiskStoreServesBufferedRecords reads each record right after its
// Put, through Store.Get and a Reader, while other goroutines' Puts
// fill and write out the buffer underneath: a record is served from the
// buffer until a write moves it to the file, and from the file after.
func TestDiskStoreServesBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), recVal(0, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if seg := (*s.segs.Load())[0]; seg.end.Load() != 0 {
		t.Fatalf("one small Put reached the file (%d bytes)", seg.end.Load())
	}
	checkGet(t, "Store.Get", s.Get, 0, recVal(0, 100, 0))
	checkGet(t, "Reader.Get", s.NewReader().Get, 0, recVal(0, 100, 0))

	const writers, perWriter = 4, 300
	val := func(i int) []byte { return recVal(i, 50+i%700, 1) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd := s.NewReader()
			for i := 1 + w*perWriter; i <= (w+1)*perWriter; i++ {
				if err := s.Put(testKey(i), val(i)); err != nil {
					t.Error(err)
					return
				}
				for via, get := range map[string]func(Key) ([]byte, bool, error){"Store.Get": s.Get, "Reader.Get": rd.Get} {
					if v, ok, err := get(testKey(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
						t.Errorf("%s(%d) after its Put: %d bytes ok=%v err=%v", via, i, len(v), ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != writers*perWriter+1 {
		t.Fatalf("reopened Len=%d want %d", s.Len(), writers*perWriter+1)
	}
	rd := s.NewReader()
	for i := 1; i <= writers*perWriter; i++ {
		checkGet(t, "Reader.Get", rd.Get, i, val(i))
	}
}

// TestDiskStoreReaderBlockDuringFlush fills Reader blocks while a writer
// appends: a block holds only the bytes the file held when it was read,
// so every Get through it returns a whole record, never the bytes past
// the last completed write.
func TestDiskStoreReaderBlockDuringFlush(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A block read before a write ends where the file ended.
	putSync := func(i int) {
		t.Helper()
		if err := s.Put(testKey(i), recVal(i, 300, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	putSync(0)
	rd := s.NewReader()
	checkGet(t, "Reader.Get", rd.Get, 0, recVal(0, 300, 0))
	if len(rd.block) != 300+4 {
		t.Fatalf("block holds %d bytes, want the 304 the file held", len(rd.block))
	}
	putSync(1)
	checkGet(t, "Reader.Get", rd.Get, 1, recVal(1, 300, 0))

	const n = 3000
	val := func(i int) []byte { return recVal(i, 100+i%1000, 2) }
	var stored atomic.Int64 // keys [2, stored) are put
	stored.Store(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; i < n; i++ {
			if err := s.Put(testKey(i), val(i)); err != nil {
				t.Error(err)
				return
			}
			stored.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := s.NewReader()
			for next := 2; next < n; {
				hi := int(stored.Load())
				for ; next < hi; next++ {
					if v, ok, err := rd.Get(testKey(next)); err != nil || !ok || !bytes.Equal(v, val(next)) {
						t.Errorf("Reader.Get(%d): %d bytes ok=%v err=%v", next, len(v), ok, err)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// TestDiskStoreFailedWrite makes the write of buffered records fail by
// replacing the active handle with a closed file. The Put, Sync or
// Close that made the write returns its error, the buffered records
// leave the index, the next Put starts a new segment, and a reopen
// serves every record written before and after.
func TestDiskStoreFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trigger func(s *Store) error
	}{
		{"Put", func(s *Store) error { return s.Put(testKey(99), recVal(99, blockSize, 0)) }},
		{"Sync", func(s *Store) error { return s.Sync() }},
		{"Close", func(s *Store) error { return s.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := s.Put(testKey(i), recVal(i, 200, 0)); err != nil {
					t.Fatal(err)
				}
				if i == 9 {
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			closed, err := os.Create(filepath.Join(t.TempDir(), "closed"))
			if err != nil {
				t.Fatal(err)
			}
			closed.Close()
			s.segMu.Lock()
			s.active = closed
			s.segMu.Unlock()
			if err := tc.trigger(s); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("%s returned %v, want the failed write's error", tc.name, err)
			}
			if tc.name != "Close" {
				if s.Len() != 10 {
					t.Fatalf("Len=%d after the failed write, want the 10 written records", s.Len())
				}
				rd := s.NewReader()
				for i := 0; i < 20; i++ {
					want := recVal(i, 200, 0)
					if i >= 10 {
						want = nil
					}
					checkGet(t, "Store.Get", s.Get, i, want)
					checkGet(t, "Reader.Get", rd.Get, i, want)
				}
				checkGet(t, "Store.Get", s.Get, 99, nil)
				for i := 20; i < 30; i++ {
					if err := s.Put(testKey(i), recVal(i, 200, 0)); err != nil {
						t.Fatal(err)
					}
				}
				if s.nSegs() != 2 {
					t.Fatalf("%d segments, want the next Put to start a second", s.nSegs())
				}
				checkGet(t, "Store.Get", s.Get, 25, recVal(25, 200, 0))
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			s, err = OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			after := 30
			if tc.name == "Close" {
				after = 20
			}
			if s.Len() != 10+after-20 {
				t.Fatalf("reopened Len=%d want %d", s.Len(), 10+after-20)
			}
			for i := 0; i < after; i++ {
				want := recVal(i, 200, 0)
				if i >= 10 && i < 20 {
					want = nil
				}
				checkGet(t, "Store.Get", s.Get, i, want)
			}
		})
	}
}

// TestDiskStoreRecoverAcrossBlocks reopens a segment several blocks
// long: 2,001 records of 115-byte values (a campaign result record is
// 159 bytes), one of them a 100 KB value that the rebuild reads alone.
// Intact, every value comes back bit-exact. Damaged past the first
// block — cut inside the record that straddles the first block
// boundary, one flipped crc byte in the first record wholly inside the
// second block, or cut exactly at a block boundary — a reopen serves
// exactly the records before the damage, and a Put after it survives
// another reopen.
func TestDiskStoreRecoverAcrossBlocks(t *testing.T) {
	const n, big = 2001, 1000 // record big holds the 100 KB value
	val := func(i int) []byte {
		if i == big {
			return recVal(i, 100<<10, 0)
		}
		return recVal(i, 115, 0)
	}
	src := t.TempDir()
	s, err := OpenStore(src)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, n) // offset one past each record
	for i, end := 0, 0; i < n; i++ {
		if err := s.Put(testKey(i), val(i)); err != nil {
			t.Fatal(err)
		}
		end += recHeaderSize + len(val(i)) + 4
		ends[i] = end
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(src, "cache-000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	before := func(cut int) int { // records wholly below cut
		i := 0
		for i < n && ends[i] <= cut {
			i++
		}
		return i
	}
	straddle := before(blockSize) // starts below blockSize, ends past it
	for _, tc := range []struct {
		name   string
		damage func(raw []byte) []byte
		intact int
	}{
		{"intact", func(raw []byte) []byte { return raw }, n},
		{"cut-inside-straddling-record", func(raw []byte) []byte {
			return raw[:(blockSize+ends[straddle])/2]
		}, straddle},
		{"crc-in-second-block", func(raw []byte) []byte {
			raw[ends[straddle+1]-1] ^= 0x40
			return raw
		}, straddle + 1},
		{"cut-at-block-boundary", func(raw []byte) []byte { return raw[:2*blockSize] }, before(2 * blockSize)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			damaged := tc.damage(bytes.Clone(raw))
			if err := os.WriteFile(filepath.Join(dir, "cache-000001.seg"), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(s *Store, extra int) {
				t.Helper()
				if s.Len() != tc.intact+extra {
					t.Fatalf("Len=%d want %d intact records + %d", s.Len(), tc.intact, extra)
				}
				rd := s.NewReader()
				for i := 0; i < n; i++ {
					want := val(i)
					if i >= tc.intact {
						want = nil
					}
					checkGet(t, "Store.Get", s.Get, i, want)
					checkGet(t, "Reader.Get", rd.Get, i, want)
				}
			}
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(s, 0)
			if err := s.Put(testKey(n), val(n)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = OpenStore(dir); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			check(s, 1)
			checkGet(t, "Store.Get", s.Get, n, val(n))
		})
	}
}

// TestDiskStoreIndexEstimate covers the record-count estimate that
// sizes the index stripes before a rebuild. On a store of one record
// length under sha256 keys, the campaign's shape, no stripe holds more
// keys than its hint, so the rebuild never grows a map. A first record
// shorter than the rest overestimates, and a first header with a bad
// magic gives no estimate; either way the store opens and serves every
// intact record.
func TestDiskStoreIndexEstimate(t *testing.T) {
	open := func(t *testing.T, key func(i int) Key, vals func(i int) []byte, n int, damage func(raw []byte)) (*Store, int) {
		t.Helper()
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), vals(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "cache-000001.seg")
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		damage(raw)
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hint, err := stripeHint(f, int64(len(raw)), int64(len(raw)), make([]byte, blockSize))
		if err != nil {
			t.Fatal(err)
		}
		if s, err = OpenStore(dir); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, hint
	}
	t.Run("uniform", func(t *testing.T) {
		const n = 14400
		digest := func(i int) Key { return sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(i))) }
		s, hint := open(t, digest, func(i int) []byte { return recVal(i, 115, 0) }, n, func([]byte) {})
		if s.Len() != n {
			t.Fatalf("Len=%d want %d", s.Len(), n)
		}
		for i := range s.shards {
			if got := len(s.shards[i].index); got > hint {
				t.Fatalf("stripe %d holds %d keys, more than its hint %d", i, got, hint)
			}
		}
	})
	t.Run("empty-first-value", func(t *testing.T) {
		const n = 41
		val := func(i int) []byte {
			if i == 0 {
				return []byte{}
			}
			return recVal(i, 8<<10, 0)
		}
		s, hint := open(t, testKey, val, n, func([]byte) {})
		if total := 44 + (n-1)*(recHeaderSize+8<<10+4); hint < total/44/storeShards {
			t.Fatalf("hint %d for %d bytes whose first record is 44 bytes long", hint, total)
		}
		if s.Len() != n {
			t.Fatalf("Len=%d want %d", s.Len(), n)
		}
		for i := 0; i < n; i++ {
			checkGet(t, "Store.Get", s.Get, i, val(i))
		}
	})
	t.Run("bad-first-magic", func(t *testing.T) {
		s, hint := open(t, testKey, func(i int) []byte { return recVal(i, 115, 0) }, 100, func(raw []byte) { raw[0] ^= 0xFF })
		if hint != 0 {
			t.Fatalf("hint %d from a header with a bad magic", hint)
		}
		if s.Len() != 0 {
			t.Fatalf("Len=%d want 0 (the first record is corrupt)", s.Len())
		}
	})
}

// FuzzStoreOps runs a script of store operations against a map model.
// Every Get, through Store.Get or either of two Readers, returns the
// model's bytes or misses a key never put; a Close and reopen keeps
// every Put; and an abandon and reopen (the handles closed with records
// still buffered, as a SIGKILL leaves them) keeps exactly the records
// whose write completed: every Put but those since the last write, a
// suffix the model tracks from the flush rule (a write when a record
// would take the buffer past blockSize, before a rotation, and in Sync
// and Close).
func FuzzStoreOps(f *testing.F) {
	put := func(k byte, n int) []byte { return []byte{0, k, byte(n), byte(n >> 8)} }
	var cross, big, mixed []byte
	for i := 0; i < 20; i++ { // 20 records of ~4 KB cross one block
		cross = append(cross, put(byte(i), 4000)...)
		cross = append(cross, 4, byte(i)<<1|byte(i&1), 3, byte(i/2))
	}
	cross = append(cross, 7, 1, 3, 0, 4, 38, 3, 19)
	big = append(append(put(1, 10), put(2, 100)...), 8, 3, 7, 4, 6, 3, 3, 4, 6, 7, 1, 3, 1, 3, 3)
	mixed = append(append(append(put(5, 30), put(5, 9)...), put(6, 500)...), 6, 3, 5, 4, 12, 5)
	mixed = append(append(mixed, put(7, 0)...), 4, 14, 7, 0, 4, 11, 3, 7)
	f.Add(cross)
	f.Add(big)
	f.Add(mixed)
	f.Add(append(append(cross, big...), mixed...))
	f.Fuzz(func(t *testing.T, script []byte) {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		readers := [2]*Reader{s.NewReader(), s.NewReader()}
		model := map[int][]byte{}
		var pending []int // keys put since the last write, in order
		pendingBytes := 0
		written := func() { pending, pendingBytes = nil, 0 }
		salt := 0
		doPut := func(k, n int) {
			salt++
			v := recVal(k, n, salt)
			if err := s.Put(testKey(k), v); err != nil {
				t.Fatal(err)
			}
			if _, dup := model[k]; dup {
				return
			}
			model[k] = v
			rec := recHeaderSize + n + 4
			if pendingBytes+rec > blockSize {
				written()
			}
			pending, pendingBytes = append(pending, k), pendingBytes+rec
			if pendingBytes > blockSize {
				written()
			}
		}
		checkAll := func() {
			if s.Len() != len(model) {
				t.Fatalf("Len=%d, model holds %d", s.Len(), len(model))
			}
			for k := 0; k < 64; k++ {
				checkGet(t, "Store.Get", s.Get, k, model[k])
			}
		}
		reopen := func() {
			if s, err = OpenStore(dir); err != nil {
				t.Fatal(err)
			}
			readers = [2]*Reader{s.NewReader(), s.NewReader()}
		}
		for ops := 0; len(script) > 0 && ops < 200; ops++ {
			op := script[0] % 9
			script = script[1:]
			arg := func() int {
				if len(script) == 0 {
					return 0
				}
				b := script[0]
				script = script[1:]
				return int(b)
			}
			switch op {
			case 0, 1, 2:
				k := arg() % 64
				doPut(k, (arg()|arg()<<8)%4097)
			case 3:
				k := arg() % 64
				checkGet(t, "Store.Get", s.Get, k, model[k])
			case 4:
				a := arg()
				k := (a >> 1) % 64
				checkGet(t, "Reader.Get", readers[a&1].Get, k, model[k])
			case 5:
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				written()
			case 6:
				s.segMu.Lock()
				err := s.rotateLocked()
				s.segMu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				written()
			case 7:
				if arg()&1 == 0 {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, seg := range *s.segs.Load() {
						seg.f.Close()
					}
					for _, k := range pending {
						delete(model, k)
					}
				}
				written()
				reopen()
				checkAll()
			case 8:
				doPut(arg()%64, blockSize+arg())
			}
		}
		checkAll()
	})
}

// FuzzStoreSegment damages a segment of intact records: it cuts the
// segment at an offset and appends arbitrary bytes. The records are the
// parts of vals between zero bytes. Recovery must not panic; it must
// serve bit-exact, and count, exactly the records that lie wholly
// before the first damaged byte (a damaged record passes only by
// forging its crc32); and a Put after reopening must survive another
// reopen. Seeds cross the rebuild's first block, hold a value larger
// than a block, and cut inside the record that straddles the boundary.
func FuzzStoreSegment(f *testing.F) {
	badLen := func(n uint32) []byte {
		h := append(append([]byte{}, diskMagic[:]...), make([]byte, 32)...)
		return binary.LittleEndian.AppendUint32(h, n)
	}
	const whole = math.MaxUint32 // a cut past the end: no cut
	vals := []byte("alpha\x00\x00bravo-charlie\x00d\x00echo-foxtrot-golf")
	f.Add(vals, uint32(whole), []byte(nil))
	f.Add(vals, uint32(whole), badLen(0xFFFFFFFC))
	f.Add(vals, uint32(whole), append(badLen(1<<30), "short"...))
	f.Add(vals, uint32(recHeaderSize-4), []byte{0xFC, 0xFF, 0xFF, 0xFF})
	f.Add(vals, uint32(60), []byte(nil))
	f.Add(vals, uint32(whole), bytes.Repeat([]byte{0xFF}, 123))
	// 40 records of 2 KB values cross the first 64 KB block; record
	// blockSize/rec straddles its end.
	const rec = recHeaderSize + 2048 + 4
	var cross []byte
	for i := 0; i < 40; i++ {
		cross = append(append(cross, bytes.Repeat([]byte{byte('a' + i)}, 2048)...), 0)
	}
	straddleCut := uint32(blockSize/rec*rec + rec/2)
	f.Add(cross, uint32(whole), []byte(nil))
	f.Add(cross, straddleCut, []byte(nil))
	f.Add(cross, straddleCut, badLen(0xFFFFFFFC))
	f.Add(cross, uint32(2*rec), cross[:rec])
	big := append(append([]byte("alpha\x00"), bytes.Repeat([]byte{'x'}, blockSize+4000)...), "\x00bravo"...)
	f.Add(big, uint32(whole), []byte(nil))
	f.Add(big, uint32(blockSize+100), []byte(nil))
	f.Fuzz(func(t *testing.T, vals []byte, cut uint32, tail []byte) {
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

// BenchmarkOpenStore reopens the store a warm campaign replays: one
// segment of 14,400 records of 115-byte values (the campaign-warm
// workload's 2,289,600 bytes). Each iteration rebuilds the index from
// the file; the Close is not timed.
func BenchmarkOpenStore(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	const n = 14400
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), recVal(i, 115, 0)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Len() != n {
			b.Fatalf("Len=%d want %d", s.Len(), n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
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
