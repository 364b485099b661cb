// Disk backend: a persistent content-addressed store under the same
// sha256 Keys the in-process cache uses, so campaigns dedupe and resume
// across invocations. The format is crash-safe by construction:
// append-only segment files of self-checking records, an in-memory index
// rebuilt on open, and torn tails (a crash mid-append) truncated during
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
package runcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// storeShards stripes the index so concurrent Gets from many campaign
// workers don't serialise on one lock (keys are sha256 digests, so the
// low byte is uniform).
const storeShards = 64

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

// recoverBufSize is the read buffer of the index rebuild. A campaign
// result record is 159 bytes, so one read covers ~400 records, where
// reading the file directly costs two read syscalls per record.
const recoverBufSize = 64 << 10

// diskLoc locates one stored value inside a segment.
type diskLoc struct {
	seg  int32  // index into Store.segs
	off  int64  // offset of the value bytes
	size uint32 // value length
}

// Store is the disk tier. It is safe for concurrent use. Get touches no
// store-wide lock: the index lookup takes one shard's read lock for a
// map probe, the segment table is an atomically-published immutable
// snapshot, and the value itself is a positioned read (pread) on the
// segment file with no lock held at all — so parallel readers scale with
// cores instead of convoying on a single mutex
// (BenchmarkStoreGetParallel). Put serializes on the active segment.
type Store struct {
	dir string

	shards [storeShards]storeShard // key→location, striped by key[0]

	// segs is a copy-on-write snapshot of all segment read handles; the
	// last entry is the active segment. Readers Load it without locking;
	// rotateLocked publishes a fresh copy under segMu.
	segs atomic.Pointer[[]*os.File]

	segMu  sync.Mutex // guards active, size, count, rotation, and Put append order
	active *os.File   // append handle for the last segment
	size   int64      // current size of the active segment
	count  int        // distinct keys stored (mirrors the shard maps)

	nGet, nGetHit, nPut atomic.Uint64
}

func (s *Store) shard(k Key) *storeShard { return &s.shards[k[0]%storeShards] }

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

// appendSeg publishes a new segment-table snapshot with f appended.
// Callers hold segMu (or own the store exclusively, as OpenStore does).
func (s *Store) appendSeg(f *os.File) {
	var cur []*os.File
	if p := s.segs.Load(); p != nil {
		cur = *p
	}
	next := make([]*os.File, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = f
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
	s := &Store{dir: dir}
	for i := range s.shards {
		s.shards[i].index = make(map[Key]diskLoc)
	}
	for _, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("runcache: open segment: %w", err)
		}
		end, err := s.recoverSegment(f, int32(s.nSegs()))
		if err != nil {
			f.Close()
			s.Close()
			return nil, err
		}
		s.appendSeg(f)
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

// recoverSegment scans one segment sequentially, indexing every intact
// record and truncating the file at the first torn or corrupt one. A
// header whose length runs past the end of the file is corrupt too: it
// is never trusted to size a read. The scan reads through a buffer, so
// the file position runs ahead of off, which counts record lengths; the
// final Seek puts it back at off, where Put appends.
func (s *Store) recoverSegment(f *os.File, segIdx int32) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("runcache: open segment: %w", err)
	}
	r := bufio.NewReaderSize(f, recoverBufSize)
	var off int64
	hdr := make([]byte, recHeaderSize)
	var val []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			break // clean EOF or torn header: truncate here
		}
		if [4]byte(hdr[:4]) != diskMagic {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[36:40])
		if int64(n)+4 > fi.Size()-off-recHeaderSize {
			break
		}
		if cap(val) < int(n)+4 {
			val = make([]byte, int(n)+4)
		}
		val = val[:int(n)+4]
		if _, err := io.ReadFull(r, val); err != nil {
			break
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[4:]) // key + length
		crc.Write(val[:n])
		if crc.Sum32() != binary.LittleEndian.Uint32(val[n:]) {
			break
		}
		var k Key
		copy(k[:], hdr[4:36])
		sh := s.shard(k)
		if _, dup := sh.index[k]; !dup {
			sh.index[k] = diskLoc{seg: segIdx, off: off + recHeaderSize, size: n}
			s.count++
		}
		off += recHeaderSize + int64(n) + 4
	}
	if err := f.Truncate(off); err != nil {
		return 0, fmt.Errorf("runcache: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	return off, nil
}

// rotateLocked starts a fresh active segment. Callers hold segMu (or
// own the store exclusively, as OpenStore does).
func (s *Store) rotateLocked() error {
	name := filepath.Join(s.dir, fmt.Sprintf("cache-%06d.seg", s.nSegs()+1))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("runcache: new segment: %w", err)
	}
	s.appendSeg(f)
	s.active = f
	s.size = 0
	return nil
}

// Get returns the stored value for k, or ok=false when absent. The
// returned slice is freshly allocated and owned by the caller. The
// index probe holds one shard's read lock for a map lookup only; the
// value read is a pread on the segment file with no lock held, so
// concurrent Gets proceed fully in parallel (records are immutable once
// indexed, and the segment snapshot that indexed them is never
// unpublished while the store is open).
func (s *Store) Get(k Key) ([]byte, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	s.nGet.Add(1)
	loc, ok := s.lookup(k)
	if !ok {
		return nil, false, nil
	}
	f := (*s.segs.Load())[loc.seg]
	v := make([]byte, loc.size)
	if _, err := f.ReadAt(v, loc.off); err != nil {
		return nil, false, fmt.Errorf("runcache: reading value: %w", err)
	}
	s.nGetHit.Add(1)
	return v, true, nil
}

// Put appends (k, v) to the active segment. Storing a key that is
// already present is a no-op: values are content-addressed, so a
// duplicate write is by definition identical.
func (s *Store) Put(k Key, v []byte) error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if _, dup := s.lookup(k); dup { // Puts serialize on segMu, so this check is atomic
		return nil
	}
	if s.size >= maxSegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	rec := make([]byte, recHeaderSize+len(v)+4)
	copy(rec[:4], diskMagic[:])
	copy(rec[4:36], k[:])
	binary.LittleEndian.PutUint32(rec[36:40], uint32(len(v)))
	copy(rec[recHeaderSize:], v)
	crc := crc32.NewIEEE()
	crc.Write(rec[4:recHeaderSize])
	crc.Write(v)
	binary.LittleEndian.PutUint32(rec[recHeaderSize+len(v):], crc.Sum32())
	if _, err := s.active.Write(rec); err != nil {
		return fmt.Errorf("runcache: appending record: %w", err)
	}
	loc := diskLoc{seg: int32(s.nSegs() - 1), off: s.size + recHeaderSize, size: uint32(len(v))}
	sh := s.shard(k)
	sh.mu.Lock()
	sh.index[k] = loc
	sh.mu.Unlock()
	s.count++
	s.size += int64(len(rec))
	s.nPut.Add(1)
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

// Sync flushes the active segment to stable storage — the checkpoint
// operation graceful shutdown relies on.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.active == nil {
		return nil
	}
	return s.active.Sync()
}

// Close syncs and releases every segment handle. The store must not be
// used afterwards.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	var first error
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			first = err
		}
	}
	if p := s.segs.Load(); p != nil {
		for _, f := range *p {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.segs.Store(&[]*os.File{})
	s.active = nil
	return first
}
