// Package runcache is the persistent content-addressed run store:
// campaign results under the Keys that scenario.CacheKey computes, so
// campaigns dedupe and resume across invocations.
// Correctness rests on runs being pure functions of their digested
// inputs. The format is crash-safe by construction: append-only
// segment files of self-checking records, an in-memory index rebuilt
// on open, and torn tails (a crash mid-append) truncated during
// recovery. Values are opaque bytes; the caller owns the codec (the
// campaign layer encodes scenario.Results), which keeps the store
// generic and the on-disk format independent of Go struct layout.
//
// Record layout (little-endian):
//
//	[4B magic "eMPc"] [32B key] [4B value length] [value] [4B crc32]
//
// where the crc covers key, length, and value. Records are immutable
// once written; a key is stored at most once (first write wins — values
// are pure functions of their content key, so rewrites are identical).
//
// No record costs a syscall of its own. Put appends records to a write
// buffer that reaches the file in one write per blockSize bytes (and
// in Sync and Close), so a crash loses at most the Puts since the last
// write; a Reader serves a fold's Gets from one pread per block. Both
// read paths serve a record that is still in the write buffer.
package runcache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Key is a content key of one run's inputs. scenario.RunKey composes it
// from the leading bytes of a SHA-256 of the scenario and the run's
// trace flag, protocol and seed verbatim, so no one byte of a key is
// uniform: every run of a scenario shares its first 22 bytes, and runs
// of one seed share the last 8.
type Key [32]byte

// The index has storeShards stripes, so concurrent Gets from many
// campaign workers don't serialise on one lock.
const (
	stripeBits  = 6
	storeShards = 1 << stripeBits
)

// stripe picks k's index stripe. It folds the key's four 64-bit words
// with XOR, which mixes a composed key's scenario digest, protocol and
// seed, and keeps the top stripeBits bits of a Fibonacci multiply: the
// consecutive seeds of one scenario and protocol spread evenly over the
// stripes, and random digests stay uniform.
func stripe(k Key) int {
	x := binary.LittleEndian.Uint64(k[0:]) ^ binary.LittleEndian.Uint64(k[8:]) ^
		binary.LittleEndian.Uint64(k[16:]) ^ binary.LittleEndian.Uint64(k[24:])
	return int(x * 0x9e3779b97f4a7c15 >> (64 - stripeBits))
}

// storeShard is one stripe of the key→location index.
type storeShard struct {
	mu    sync.RWMutex
	index map[Key]diskLoc
}

var diskMagic = [4]byte{'e', 'M', 'P', 'c'}

// maxSegmentSize is the rotation threshold for the active segment.
const maxSegmentSize = 64 << 20

// recHeaderSize is magic + key + value length.
const recHeaderSize = 4 + 32 + 4

// blockSize is the store's one I/O size: the index rebuild preads the
// segments in blocks of it, Put's records reach the file in writes of
// up to it, and a Reader's read-ahead block is one. A campaign result
// record is 159 bytes, so one block covers ~400 records.
const blockSize = 64 << 10

// diskLoc locates one stored value inside a segment.
type diskLoc struct {
	seg  int32  // index into Store.segs
	off  int64  // offset of the value bytes
	size uint32 // value length
}

// segment is one segment file and how many of its bytes the file holds.
// Every byte below end was put there by a completed write, so a pread
// below it reads whole records; only the active segment's end moves.
type segment struct {
	f   *os.File
	end atomic.Int64
}

// Store is the disk tier. It is safe for concurrent use. A Get of a
// record already in the file touches no store-wide lock: the index
// lookup takes one shard's read lock for a map probe, the segment table
// is an atomically-published immutable snapshot, and the value itself
// is a positioned read (pread) on the segment file with no lock held at
// all — so parallel readers scale with cores instead of convoying on a
// single mutex (BenchmarkStoreGetParallel). A record still in the write
// buffer is copied out under segMu. Put serializes on segMu.
type Store struct {
	dir string

	shards [storeShards]storeShard // key→location, striped by stripe(key)

	// segs is a copy-on-write snapshot of all segments; the last entry
	// is the active segment. Readers Load it without locking;
	// rotateLocked publishes a fresh copy under segMu.
	segs atomic.Pointer[[]*segment]

	segMu  sync.Mutex // guards active, size, buf, count, rotation, and Put append order
	active *os.File   // append handle for the last segment; nil once a write failed
	size   int64      // bytes of the active segment, buffered ones included
	buf    []byte     // whole records appended since the last write
	count  int        // distinct keys stored (mirrors the shard maps)

	nGet, nGetHit, nPut atomic.Uint64
}

func (s *Store) shard(k Key) *storeShard { return &s.shards[stripe(k)] }

// lookup probes the striped index.
func (s *Store) lookup(k Key) (diskLoc, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	loc, ok := sh.index[k]
	sh.mu.RUnlock()
	return loc, ok
}

// nSegs reports the current segment count from the published snapshot.
func (s *Store) nSegs() int {
	if p := s.segs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// appendSeg publishes a new segment-table snapshot with f appended,
// holding end bytes. Callers hold segMu (or own the store exclusively,
// as OpenStore does).
func (s *Store) appendSeg(f *os.File, end int64) {
	var cur []*segment
	if p := s.segs.Load(); p != nil {
		cur = *p
	}
	next := make([]*segment, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = &segment{f: f}
	next[len(cur)].end.Store(end)
	s.segs.Store(&next)
}

// OpenStore opens (creating if needed) the disk cache rooted at dir and
// rebuilds the in-memory index from the segment files. A torn record at
// the tail of any segment — the footprint of a crash mid-append — is
// truncated away; everything before it is kept.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: open store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "cache-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	files := make([]*os.File, 0, len(names))
	sizes := make([]int64, 0, len(names))
	fail := func(err error) (*Store, error) {
		for _, f := range files {
			f.Close()
		}
		return nil, err
	}
	var total int64
	for _, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			return fail(fmt.Errorf("runcache: open segment: %w", err))
		}
		files = append(files, f)
		fi, err := f.Stat()
		if err != nil {
			return fail(fmt.Errorf("runcache: open segment: %w", err))
		}
		sizes = append(sizes, fi.Size())
		total += fi.Size()
	}
	s := &Store{dir: dir}
	var buf []byte // the scan's one block, shared by every segment
	hint := 0
	if len(files) > 0 {
		buf = make([]byte, blockSize)
		if hint, err = stripeHint(files[0], sizes[0], total, buf); err != nil {
			return fail(err)
		}
	}
	for i := range s.shards {
		s.shards[i].index = make(map[Key]diskLoc, hint)
	}
	for i, f := range files {
		end, err := s.recoverSegment(f, int32(i), sizes[i], buf)
		if err != nil {
			return fail(err)
		}
		s.appendSeg(f, end)
		s.size = end
		s.active = f
	}
	if s.nSegs() == 0 {
		if err := s.rotateLocked(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// stripeHint sizes each index stripe so that rebuilding the index never
// grows a map: the segments' total bytes over the length of the first
// segment's first record estimate the record count, which is exact when
// every record has one length, as a campaign's do, and presize spreads
// it over the stripes. A first header that fails its magic or length
// check gives no estimate, and since a record is at least
// recHeaderSize+4 bytes the estimate never exceeds the records the bytes
// could hold.
func stripeHint(f *os.File, size, total int64, buf []byte) (int, error) {
	if size < recHeaderSize+4 {
		return 0, nil
	}
	h := buf[:recHeaderSize]
	if _, err := f.ReadAt(h, 0); err != nil {
		return 0, fmt.Errorf("runcache: reading segment: %w", err)
	}
	rec := recHeaderSize + int64(binary.LittleEndian.Uint32(h[36:40])) + 4
	if [4]byte(h[:4]) != diskMagic || rec > size {
		return 0, nil
	}
	return presize(total / rec), nil
}

// presize is the capacity of each index stripe for n records. stripe
// spreads keys so that a stripe's share is at most about binomial around
// n/storeShards, with a spread of about its square root; four of those
// are slack.
func presize(n int64) int {
	per := n / storeShards
	return int(per + 4*int64(math.Sqrt(float64(per))) + 1)
}

// recoverSegment scans the size bytes of one segment, indexing every
// intact record and truncating the file at the first torn or corrupt
// one. It preads the segment in blocks of len(buf) bytes and checks
// each record where it lies: the magic, then the length against the
// bytes left in the file (a header is never trusted to size a read),
// then one crc32 over the key, length and value. A record that crosses
// the block's end starts the next block, and one larger than a block is
// read alone. Preads leave the file position at 0, so the final Seek
// puts it at the end of the last intact record, where Put appends.
func (s *Store) recoverSegment(f *os.File, segIdx int32, size int64, buf []byte) (int64, error) {
	var off, start int64 // the next record; the file offset of block[0]
	var block []byte
	read := func(p []byte) error {
		start, block = off, p[:min(int64(len(p)), size-off)]
		if _, err := f.ReadAt(block, off); err != nil {
			return fmt.Errorf("runcache: reading segment: %w", err)
		}
		return nil
	}
	for off+recHeaderSize <= size { // else a clean end or a torn header
		if off+recHeaderSize > start+int64(len(block)) {
			if err := read(buf); err != nil {
				return 0, err
			}
		}
		h := block[off-start:]
		n := binary.LittleEndian.Uint32(h[36:40])
		rec := recHeaderSize + int64(n) + 4
		if [4]byte(h[:4]) != diskMagic || rec > size-off {
			break
		}
		if off+rec > start+int64(len(block)) {
			p := buf
			if rec > int64(len(buf)) {
				p = make([]byte, rec)
			}
			if err := read(p); err != nil {
				return 0, err
			}
		}
		r := block[off-start : off-start+rec]
		if crc32.ChecksumIEEE(r[4:rec-4]) != binary.LittleEndian.Uint32(r[rec-4:]) {
			break
		}
		k := Key(r[4:36])
		sh := s.shard(k)
		if _, dup := sh.index[k]; !dup {
			sh.index[k] = diskLoc{seg: segIdx, off: off + recHeaderSize, size: n}
			s.count++
		}
		off += rec
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return 0, fmt.Errorf("runcache: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	return off, nil
}

// rotateLocked writes out the buffered records and starts a fresh
// active segment. Callers hold segMu (or own the store exclusively, as
// OpenStore does).
func (s *Store) rotateLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	name := filepath.Join(s.dir, fmt.Sprintf("cache-%06d.seg", s.nSegs()+1))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("runcache: new segment: %w", err)
	}
	s.appendSeg(f, 0)
	s.active = f
	s.size = 0
	return nil
}

// flushLocked writes the buffered records to the active segment in one
// write. A failed write may leave part of a record in the file, so the
// segment takes no more appends: the buffered records leave the index
// (Get misses them, and a later Put stores them afresh) and the next
// Put starts a new segment. Callers hold segMu.
func (s *Store) flushLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.active.Write(s.buf)
	if err != nil {
		for b := s.buf; len(b) > 0; {
			k, n := Key(b[4:36]), binary.LittleEndian.Uint32(b[36:40])
			sh := s.shard(k)
			sh.mu.Lock()
			delete(sh.index, k)
			sh.mu.Unlock()
			s.count--
			b = b[recHeaderSize+int(n)+4:]
		}
		s.active = nil
		err = fmt.Errorf("runcache: appending records: %w", err)
	} else {
		segs := *s.segs.Load()
		segs[len(segs)-1].end.Store(s.size)
	}
	s.buf = s.buf[:0]
	if cap(s.buf) > blockSize { // grown by a record larger than a block
		s.buf = nil
	}
	return err
}

// readBuffered copies into p the active segment's bytes from loc.off,
// up to len(p) of them, when loc's record is still in the write buffer.
// ok is false once a write has moved it to the file or dropped it.
func (s *Store) readBuffered(p []byte, loc diskLoc) (n int, ok bool) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	start := s.size - int64(len(s.buf))
	if s.active == nil || int(loc.seg) != s.nSegs()-1 || loc.off < start {
		return 0, false
	}
	return copy(p, s.buf[loc.off-start:]), true
}

// readAt copies into p, which has room for the value, the bytes of
// loc's segment from loc.off: up to len(p) of them from the file, never
// past the last completed write, so a read racing appends sees whole
// records only; or from the write buffer while the record is still
// there. ok is false when a failed write dropped the record.
func (s *Store) readAt(p []byte, loc diskLoc) (n int, ok bool, err error) {
	seg := (*s.segs.Load())[loc.seg]
	valEnd := loc.off + int64(loc.size)
	end := seg.end.Load()
	if valEnd > end {
		if n, ok := s.readBuffered(p, loc); ok {
			return n, true, nil
		}
		if end = seg.end.Load(); valEnd > end {
			return 0, false, nil
		}
	}
	n = int(min(int64(len(p)), end-loc.off))
	if _, err := seg.f.ReadAt(p[:n], loc.off); err != nil {
		return 0, false, fmt.Errorf("runcache: reading value: %w", err)
	}
	return n, true, nil
}

// Get returns the stored value for k, or ok=false when absent. The
// returned slice is freshly allocated and owned by the caller. The
// index probe holds one shard's read lock for a map lookup only; the
// value read of a record already in the file is a pread with no lock
// held, so concurrent Gets proceed fully in parallel (records are
// immutable once written, and the segment snapshot that indexed them is
// never unpublished while the store is open).
func (s *Store) Get(k Key) ([]byte, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	s.nGet.Add(1)
	loc, ok := s.lookup(k)
	if !ok {
		return nil, false, nil
	}
	v := make([]byte, loc.size)
	if _, ok, err := s.readAt(v, loc); !ok {
		return nil, false, err
	}
	s.nGetHit.Add(1)
	return v, true, nil
}

// Reader serves Gets for one goroutine through a private read-ahead
// block. A Get outside the block refills it with one pread starting at
// the value, clipped to the bytes the file holds, so a fold over
// records stored in run order pays one syscall per block rather than
// one per record, and concurrent folds never evict each other's block.
// A Reader is not safe for concurrent use.
type Reader struct {
	s     *Store
	mem   []byte // the block's memory, allocated by the first refill
	block []byte // bytes [start, start+len(block)) of segment seg
	seg   int32
	start int64
}

// NewReader returns a Reader of s. A nil store's Reader is nil, which
// misses every key.
func (s *Store) NewReader() *Reader {
	if s == nil {
		return nil
	}
	return &Reader{s: s}
}

// Get is Store.Get without the copy: the returned slice views the
// Reader's block and is valid until its next Get.
func (r *Reader) Get(k Key) ([]byte, bool, error) {
	if r == nil {
		return nil, false, nil
	}
	s := r.s
	s.nGet.Add(1)
	loc, ok := s.lookup(k)
	if !ok {
		return nil, false, nil
	}
	if loc.seg != r.seg || loc.off < r.start || loc.off+int64(loc.size) > r.start+int64(len(r.block)) {
		p := r.mem
		if loc.size > blockSize {
			p = make([]byte, loc.size)
		} else if p == nil {
			r.mem = make([]byte, blockSize)
			p = r.mem
		}
		n, ok, err := s.readAt(p, loc)
		if !ok {
			return nil, false, err
		}
		r.block, r.seg, r.start = p[:n], loc.seg, loc.off
	}
	s.nGetHit.Add(1)
	v := r.block[loc.off-r.start:]
	return v[:loc.size:loc.size], true, nil
}

// appendRecord appends (k, v)'s record to b.
func appendRecord(b []byte, k Key, v []byte) []byte {
	rec := len(b)
	b = append(b, diskMagic[:]...)
	b = append(b, k[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	b = append(b, v...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[rec+4:]))
}

// Put appends (k, v) to the active segment through the write buffer,
// which goes to the file in one write when this record would take it
// past blockSize (a record larger than that goes out alone). Storing a
// key that is already present is a no-op: values are
// content-addressed, so a duplicate write is by definition identical.
// A failed write's error is returned by the Put, Sync or Close that
// made it.
func (s *Store) Put(k Key, v []byte) error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if _, dup := s.lookup(k); dup { // Puts serialize on segMu, so this check is atomic
		return nil
	}
	if s.active == nil || s.size >= maxSegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n := recHeaderSize + len(v) + 4
	if len(s.buf)+n > blockSize {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	if s.buf == nil {
		s.buf = make([]byte, 0, blockSize)
	}
	s.buf = appendRecord(s.buf, k, v)
	loc := diskLoc{seg: int32(s.nSegs() - 1), off: s.size + recHeaderSize, size: uint32(len(v))}
	sh := s.shard(k)
	sh.mu.Lock()
	sh.index[k] = loc
	sh.mu.Unlock()
	s.count++
	s.size += int64(n)
	s.nPut.Add(1)
	if len(s.buf) > blockSize {
		return s.flushLocked()
	}
	return nil
}

// Len reports the number of distinct keys stored.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	return s.count
}

// DiskStats reports lookups, lookup hits, and appended records since
// open. Safe to call concurrently.
func (s *Store) DiskStats() (gets, hits, puts uint64) {
	if s == nil {
		return 0, 0, 0
	}
	return s.nGet.Load(), s.nGetHit.Load(), s.nPut.Load()
}

// Sync writes out the buffered records and flushes the active segment
// to stable storage — the checkpoint operation graceful shutdown relies
// on.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if s.active == nil {
		return nil
	}
	return s.active.Sync()
}

// Close writes out the buffered records, syncs, and releases every
// segment handle. The store must not be used afterwards.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	first := s.flushLocked()
	if s.active != nil {
		if err := s.active.Sync(); err != nil && first == nil {
			first = err
		}
	}
	if p := s.segs.Load(); p != nil {
		for _, seg := range *p {
			if err := seg.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.segs.Store(&[]*segment{})
	s.active = nil
	return first
}
