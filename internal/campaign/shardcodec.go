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
// locally. The header carries the worker's model version
// (scenario.KeyVersion), the campaign digest and the shard index so a
// mis-addressed POST (wrong campaign, wrong shard, codec or model skew)
// is rejected instead of silently corrupting the merge, and a trailing
// crc32 catches transport truncation before the coordinator trusts any
// of it.
//
// Layout (little-endian):
//
//	[4B magic "eMPa"] [1B codec version] [1B model version]
//	[32B spec digest] [8B shard] [8B runs] [8B simulated]
//	[8B disk hits] [4B cell count]
//	cells × cellAccSize [4B crc32 over everything before it]

var shardMagic = [4]byte{'e', 'M', 'P', 'a'}

const (
	shardCodecVersion = 2
	// runs/completed/lteUsed + 3 streams × (N + 4 float moments).
	cellAccSize     = (3 + 3*5) * 8
	shardHeaderSize = 4 + 1 + 1 + 32 + 8 + 8 + 8 + 8 + 4
)

// shardReport is one shard's completion: what executor.foldShard
// produces, a shard frame carries and Job.complete consumes. Of its
// runs, simulated were run by an engine and diskHits read from a store;
// the counts feed Progress, not the merge. model and digest are set on
// frames only.
type shardReport struct {
	model     byte // the worker's scenario.KeyVersion
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

func encodeShardAgg(model byte, digest [32]byte, shard, runs, simulated, diskHits uint64, a *agg) []byte {
	b := make([]byte, 0, shardHeaderSize+len(a.cells)*cellAccSize+4)
	b = append(b, shardMagic[:]...)
	b = append(b, shardCodecVersion, model)
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

// checkShard rejects a decoded aggregate that foldShard cannot have
// produced for shard s: each cell must hold exactly the shard's runs
// that the grid decodes into it, and keep the invariants cellAcc.add
// and stats.Stream maintain. The crc proves only that the bytes arrived
// as sent; this proves that they count the runs the coordinator
// assigned, with moments the canonical aggregates can publish. It costs
// O(cells) whatever the shard's size: the per-cell counts come from
// grid.runsBelow, not from a walk over the shard's runs.
func (e *executor) checkShard(s uint64, a *agg) error {
	lo, hi := e.shardRange(s)
	for i := range a.cells {
		c := &a.cells[i]
		switch want := e.g.runsBelow(hi, i) - e.g.runsBelow(lo, i); {
		case c.runs != want:
			return fmt.Errorf("campaign: shard %d cell %d has %d runs, the grid assigns it %d", s, i, c.runs, want)
		case c.completed > c.runs || c.lteUsed > c.runs:
			return fmt.Errorf("campaign: shard %d cell %d counts %d completed and %d LTE runs of %d", s, i, c.completed, c.lteUsed, c.runs)
		case c.energy.N != c.runs || c.dltime.N != c.completed || c.jpb.N > c.runs:
			return fmt.Errorf("campaign: shard %d cell %d has %d energy, %d time and %d J/B samples for %d runs, %d completed",
				s, i, c.energy.N, c.dltime.N, c.jpb.N, c.runs, c.completed)
		case !validMoments(&c.energy) || !validMoments(&c.dltime) || !validMoments(&c.jpb):
			return fmt.Errorf("campaign: shard %d cell %d has a stream with non-finite moments, m2 < 0 or a mean outside [min, max]", s, i)
		}
	}
	return nil
}

// validMoments reports whether st could come from Stream.Add and
// Stream.Merge over finite samples: empty, or finite moments with
// m2 ≥ 0 and min ≤ mean ≤ max.
func validMoments(st *stats.Stream) bool {
	n, mean, m2, mn, mx := st.Moments()
	if n == 0 {
		return true
	}
	for _, f := range [...]float64{mean, m2, mn, mx} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return m2 >= 0 && mn <= mean && mean <= mx
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
	r.model = b[5]
	copy(r.digest[:], b[6:38])
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	r.shard = u64(38)
	r.runs = u64(46)
	r.simulated = u64(54)
	r.diskHits = u64(62)
	nCells := int(binary.LittleEndian.Uint32(b[70:74]))
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
