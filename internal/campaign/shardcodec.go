package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/stats"
)

// Binary codec for one shard's aggregate (*agg) on the wire between a
// worker and the coordinator. Every float travels as its exact bit
// pattern (Float64bits of the raw Welford moments), so
// decodeShardAgg(encodeShardAgg(a)) reproduces the accumulator field
// for field — which is what makes a remotely-computed shard merge into
// the campaign total byte-identically to the same shard computed
// locally. The header carries the campaign digest and shard index so a
// mis-addressed POST (wrong campaign, wrong shard, version skew) is
// rejected instead of silently corrupting the merge, and a trailing
// crc32 catches transport truncation before the coordinator trusts any
// of it.
//
// Layout (little-endian):
//
//	[4B magic "eMPa"] [1B version] [32B spec digest] [8B shard]
//	[8B runs] [8B simulated] [8B disk hits] [4B cell count]
//	cells × cellAccSize [4B crc32 over everything before it]

var shardMagic = [4]byte{'e', 'M', 'P', 'a'}

const (
	shardCodecVersion = 1
	// runs/completed/lteUsed + 3 streams × (N + 4 float moments).
	cellAccSize     = (3 + 3*5) * 8
	shardHeaderSize = 4 + 1 + 32 + 8 + 8 + 8 + 8 + 4
)

// shardReport is a decoded shard completion: the aggregate plus the
// worker's execution counters (informational — they feed Progress, not
// the merge).
type shardReport struct {
	digest    [32]byte
	shard     uint64
	runs      uint64
	simulated uint64
	diskHits  uint64
	agg       *agg
}

func appendStream(b []byte, s *stats.Stream) []byte {
	n, mean, m2, mn, mx := s.Moments()
	b = binary.LittleEndian.AppendUint64(b, n)
	for _, f := range [...]float64{mean, m2, mn, mx} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func encodeShardAgg(digest [32]byte, shard, runs, simulated, diskHits uint64, a *agg) []byte {
	b := make([]byte, 0, shardHeaderSize+len(a.cells)*cellAccSize+4)
	b = append(b, shardMagic[:]...)
	b = append(b, shardCodecVersion)
	b = append(b, digest[:]...)
	b = binary.LittleEndian.AppendUint64(b, shard)
	b = binary.LittleEndian.AppendUint64(b, runs)
	b = binary.LittleEndian.AppendUint64(b, simulated)
	b = binary.LittleEndian.AppendUint64(b, diskHits)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.cells)))
	for i := range a.cells {
		c := &a.cells[i]
		b = binary.LittleEndian.AppendUint64(b, c.runs)
		b = binary.LittleEndian.AppendUint64(b, c.completed)
		b = binary.LittleEndian.AppendUint64(b, c.lteUsed)
		b = appendStream(b, &c.energy)
		b = appendStream(b, &c.dltime)
		b = appendStream(b, &c.jpb)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// checkCounts rejects a decoded aggregate that foldShard cannot have
// produced for shard s: each cell must hold exactly the shard's runs
// that the grid decodes into it, and keep the invariants cellAcc.add
// maintains. The crc proves only that the bytes arrived as sent; this
// proves that they count the runs the coordinator assigned.
func (e *executor) checkCounts(s uint64, a *agg) error {
	lo, hi := e.shardRange(s)
	want := make([]uint64, len(a.cells))
	for i := lo; i < hi; i++ {
		want[e.g.cellAt(i)]++
	}
	for i := range a.cells {
		c := &a.cells[i]
		switch {
		case c.runs != want[i]:
			return fmt.Errorf("campaign: shard %d cell %d has %d runs, the grid assigns it %d", s, i, c.runs, want[i])
		case c.completed > c.runs || c.lteUsed > c.runs:
			return fmt.Errorf("campaign: shard %d cell %d counts %d completed and %d LTE runs of %d", s, i, c.completed, c.lteUsed, c.runs)
		case c.energy.N != c.runs || c.dltime.N != c.completed || c.jpb.N > c.runs:
			return fmt.Errorf("campaign: shard %d cell %d has %d energy, %d time and %d J/B samples for %d runs, %d completed",
				s, i, c.energy.N, c.dltime.N, c.jpb.N, c.runs, c.completed)
		}
	}
	return nil
}

// decodeShardAgg parses and validates a shard completion. wantCells
// guards the merge: a payload whose cell count disagrees with the
// campaign's grid is structurally wrong regardless of its checksum.
func decodeShardAgg(b []byte, wantCells int) (shardReport, error) {
	var r shardReport
	if len(b) < shardHeaderSize+4 {
		return r, fmt.Errorf("campaign: shard payload is %d bytes, want ≥ %d", len(b), shardHeaderSize+4)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return r, fmt.Errorf("campaign: shard payload crc mismatch")
	}
	if [4]byte(b[:4]) != shardMagic || b[4] != shardCodecVersion {
		return r, fmt.Errorf("campaign: shard payload magic/version mismatch")
	}
	copy(r.digest[:], b[5:37])
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	r.shard = u64(37)
	r.runs = u64(45)
	r.simulated = u64(53)
	r.diskHits = u64(61)
	nCells := int(binary.LittleEndian.Uint32(b[69:73]))
	if nCells != wantCells {
		return r, fmt.Errorf("campaign: shard payload has %d cells, campaign has %d", nCells, wantCells)
	}
	if want := shardHeaderSize + nCells*cellAccSize + 4; len(b) != want {
		return r, fmt.Errorf("campaign: shard payload is %d bytes, want %d", len(b), want)
	}
	r.agg = newAgg(nCells)
	off := shardHeaderSize
	f64 := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		return v
	}
	n64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	stream := func() stats.Stream {
		n := n64()
		mean, m2, mn, mx := f64(), f64(), f64(), f64()
		return stats.StreamFromMoments(n, mean, m2, mn, mx)
	}
	for i := 0; i < nCells; i++ {
		c := &r.agg.cells[i]
		c.runs = n64()
		c.completed = n64()
		c.lteUsed = n64()
		c.energy = stream()
		c.dltime = stream()
		c.jpb = stream()
	}
	return r, nil
}
