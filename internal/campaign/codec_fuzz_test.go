package campaign

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/units"
)

// fieldSource hands out fuzz bytes as fixed-width values, zero once the
// bytes run out.
type fieldSource struct{ b []byte }

func (s *fieldSource) u64() uint64 {
	var w [8]byte
	n := copy(w[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (s *fieldSource) f64() float64 { return math.Float64frombits(s.u64()) }

// resultFields lists every field the result codec carries, floats as
// their bits, so two Results compare bit for bit (NaN payloads too).
func resultFields(r scenario.Result) []uint64 {
	b2u := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	out := []uint64{uint64(r.Protocol), b2u(r.Completed),
		math.Float64bits(r.CompletionTime), math.Float64bits(r.Elapsed), math.Float64bits(float64(r.Energy))}
	for _, e := range r.ByIface {
		out = append(out, math.Float64bits(float64(e)))
	}
	return append(out, math.Float64bits(float64(r.BaseEnergy)), math.Float64bits(float64(r.Downloaded)),
		math.Float64bits(float64(r.Uploaded)), math.Float64bits(r.JPerByte), math.Float64bits(r.BatteryPct),
		uint64(r.Switches), b2u(r.LTEUsed))
}

// Only 0 and 1 are booleans on disk: any other byte pattern would decode
// to a Result that encodes to different bytes.
func TestResultCodecRejectsNonCanonicalBooleans(t *testing.T) {
	r := scenario.Result{Protocol: scenario.MPTCP, Completed: true, LTEUsed: true, Energy: 3}
	good := encodeResult(r)
	for _, tc := range []struct {
		name string
		off  int
		v    byte
	}{
		{"completed = 2", 2 + 8, 2},
		{"completed high byte", 2 + 8 + 7, 1},
		{"lte_used = 2", codecSize - 1, 2},
		{"lte_used = 0xff", codecSize - 1, 0xff},
	} {
		b := append([]byte(nil), good...)
		b[tc.off] = tc.v
		var got scenario.Result
		if err := decodeResult(b, &got); err == nil {
			t.Errorf("%s: decoded to %+v", tc.name, got)
		}
	}
	if err := decodeResult(good, new(scenario.Result)); err != nil {
		t.Fatalf("canonical record refused: %v", err)
	}
}

// FuzzResultCodec: decodeResult never panics, every record it accepts
// re-encodes to exactly its bytes, a record it refuses leaves the
// destination as it was, and decode(encode(r)) is bit-exact for a Result
// built from the same fuzz bytes.
func FuzzResultCodec(f *testing.F) {
	f.Add(encodeResult(scenario.Result{Protocol: scenario.EMPTCP, Completed: true, CompletionTime: 12.375,
		Energy: 34.5, ByIface: [energy.NumInterfaces]units.Energy{1, 2, 0}, Switches: 3, LTEUsed: true}))
	f.Add(encodeResult(scenario.Result{CompletionTime: math.NaN(), JPerByte: math.Inf(1)}))
	f.Add([]byte{codecVersion, byte(energy.NumInterfaces)})
	noncanon := encodeResult(scenario.Result{Completed: true})
	noncanon[10] = 2
	f.Add(noncanon)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := scenario.Result{Protocol: -1, CompletionTime: math.NaN(), Switches: -1}
		dst := before
		if err := decodeResult(data, &dst); err == nil {
			if again := encodeResult(dst); !bytes.Equal(again, data) {
				t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", data, again)
			}
		} else if a, b := resultFields(before), resultFields(dst); !slices.Equal(a, b) {
			t.Fatalf("refused record changed the destination:\n was %x\n now %x", a, b)
		}

		src := fieldSource{data}
		var r scenario.Result
		r.Protocol = scenario.Protocol(src.u64())
		r.CompletionTime = src.f64()
		r.Elapsed = src.f64()
		r.Energy = units.Energy(src.f64())
		for i := range r.ByIface {
			r.ByIface[i] = units.Energy(src.f64())
		}
		r.BaseEnergy = units.Energy(src.f64())
		r.Downloaded = units.ByteSize(src.f64())
		r.Uploaded = units.ByteSize(src.f64())
		r.JPerByte = src.f64()
		r.BatteryPct = src.f64()
		r.Switches = int(src.u64())
		flags := src.u64()
		r.Completed = flags&1 != 0
		r.LTEUsed = flags&2 != 0
		var got scenario.Result
		if err := decodeResult(encodeResult(r), &got); err != nil {
			t.Fatalf("round trip refused: %v", err)
		}
		if a, b := resultFields(r), resultFields(got); !slices.Equal(a, b) {
			t.Fatalf("round trip changed the result:\n in  %x\n out %x", a, b)
		}
	})
}

// shardFields lists a decoded shard frame's header and every cell's
// counts and moments, floats as bits.
func shardFields(r shardReport) []uint64 {
	out := []uint64{uint64(r.model), r.shard, r.runs, r.simulated, r.diskHits}
	for i := 0; i < len(r.digest); i += 8 {
		out = append(out, binary.LittleEndian.Uint64(r.digest[i:]))
	}
	for i := range r.agg.cells {
		c := &r.agg.cells[i]
		out = append(out, c.runs, c.completed, c.lteUsed)
		for _, st := range []*stats.Stream{&c.energy, &c.dltime, &c.jpb} {
			n, mean, m2, mn, mx := st.Moments()
			out = append(out, n, math.Float64bits(mean), math.Float64bits(m2), math.Float64bits(mn), math.Float64bits(mx))
		}
	}
	return out
}

// FuzzShardCodec: decodeShardAgg never panics on any bytes; a frame
// built from fuzzed header fields, cells and moments decodes to exactly
// those values, model version included; and flipping any one byte of
// that frame gets it rejected.
func FuzzShardCodec(f *testing.F) {
	one := newAgg(2)
	one.cells[0] = cellAcc{runs: 3, completed: 2, lteUsed: 1,
		energy: stats.StreamFromMoments(3, 20.5, 1.25, 19, 22), dltime: stats.StreamFromMoments(2, 8, 0.5, 7.5, 8.5)}
	f.Add(encodeShardAgg(scenario.KeyVersion, [32]byte{1, 2, 3}, 4, 3, 3, 0, one), uint8(2))
	f.Add([]byte("eMPa"), uint8(0))
	f.Add(make([]byte, shardHeaderSize+4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cells uint8) {
		// Arbitrary bytes: reject or decode, never panic.
		decodeShardAgg(data, int(cells))

		src := fieldSource{data}
		var want shardReport
		want.model = byte(src.u64())
		for i := 0; i < len(want.digest); i += 8 {
			binary.LittleEndian.PutUint64(want.digest[i:], src.u64())
		}
		want.shard, want.runs, want.simulated, want.diskHits = src.u64(), src.u64(), src.u64(), src.u64()
		n := int(cells % 4)
		want.agg = newAgg(n)
		for i := range want.agg.cells {
			c := &want.agg.cells[i]
			c.runs, c.completed, c.lteUsed = src.u64(), src.u64(), src.u64()
			for _, st := range []*stats.Stream{&c.energy, &c.dltime, &c.jpb} {
				*st = stats.StreamFromMoments(src.u64(), src.f64(), src.f64(), src.f64(), src.f64())
			}
		}
		frame := encodeShardAgg(want.model, want.digest, want.shard, want.runs, want.simulated, want.diskHits, want.agg)
		got, err := decodeShardAgg(frame, n)
		if err != nil {
			t.Fatalf("round trip refused: %v", err)
		}
		if a, b := shardFields(want), shardFields(got); !slices.Equal(a, b) {
			t.Fatalf("round trip changed the frame:\n in  %x\n out %x", a, b)
		}

		mask := byte(cells) | 1
		for i := range frame {
			frame[i] ^= mask
			if _, err := decodeShardAgg(frame, n); err == nil {
				t.Fatalf("frame with byte %d flipped by %#x decoded", i, mask)
			}
			frame[i] ^= mask
		}
	})
}
