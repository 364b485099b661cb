package campaign

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// runCoords is one run drawn from a small vocabulary: 12 bits of a word
// pick the device, the WiFi and LTE qualities, the server location,
// the download size, the protocol, the seed and Opts.Trace. Every
// coordinate but Trace is a spec value.
type runCoords struct {
	device, wifi, lte, loc, proto string
	sizeMB                        float64
	seed                          int64
	trace                         bool
}

func decodeCoords(w uint16) runCoords {
	pick := func(bit, n uint) uint { return uint(w>>bit) & (1<<n - 1) }
	quality := [2]string{"good", "bad"}
	protos := [7]string{"tcp-wifi", "tcp-lte", "mptcp", "emptcp", "wifi-first", "mdp", "single-path"}
	return runCoords{
		device: [2]string{"s3", "n5"}[pick(0, 1)],
		wifi:   quality[pick(1, 1)],
		lte:    quality[pick(2, 1)],
		loc:    [3]string{"wdc", "ams", "sng"}[pick(3, 2)%3],
		sizeMB: [2]float64{0.25, 1}[pick(5, 1)],
		proto:  protos[pick(6, 3)%7],
		seed:   int64(pick(9, 2)),
		trace:  pick(11, 1) == 1,
	}
}

// viaGrid builds run c through a one-run campaign grid: the compiled
// scenario, keyed as the executor keys a run, by a RunKey over the
// compiled base key.
func viaGrid(t *testing.T, c runCoords) (scenario.Scenario, scenario.Protocol, scenario.Opts, runcache.Key) {
	t.Helper()
	g, err := compile(Spec{
		Device:    c.device,
		WiFi:      []string{c.wifi},
		LTE:       []string{c.lte},
		Locations: []string{c.loc},
		SizesMB:   []float64{c.sizeMB},
		Protocols: []string{c.proto},
		Seeds:     SeedRange{Base: c.seed, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, proto, seed, _ := g.at(0)
	opt := scenario.Opts{Seed: seed, Trace: c.trace}
	k, ok := scenario.RunKey(cs.base, proto, opt)
	if !ok {
		t.Fatal("a grid run has no RunKey")
	}
	return cs.sc, proto, opt, k
}

// viaWild builds run c through a fresh scenario.Wild with its own
// device profile, keyed by scenario.CacheKey.
func viaWild(t *testing.T, c runCoords) (scenario.Scenario, scenario.Protocol, scenario.Opts, runcache.Key) {
	t.Helper()
	dev, err := deviceOf(c.device)
	if err != nil {
		t.Fatal(err)
	}
	wq, _ := qualityOf(c.wifi)
	lq, _ := qualityOf(c.lte)
	loc, _ := locationOf(c.loc)
	proto, _ := protocolOf(c.proto)
	work := workload.FileDownload{Size: units.ByteSize(c.sizeMB * float64(units.MB))}
	sc := scenario.Wild(dev, wq, lq, loc, work)
	opt := scenario.Opts{Seed: c.seed, Trace: c.trace}
	k, ok := scenario.CacheKey(sc, proto, opt)
	if !ok {
		t.Fatal("a wild scenario has no CacheKey")
	}
	return sc, proto, opt, k
}

// FuzzEqualKeysEqualResults checks the contract that lets a store hit
// stand in for a simulation: two runs whose scenario.CacheKeys are
// equal produce bit-identical Results. The first run is built through a
// campaign grid, the second independently through scenario.Wild, and
// the second runs on a pooled run state right after an unrelated run.
// When mode is even the second run is the first with one bit of its
// coordinates flipped (bits 12–15 name nothing, so a quarter of these
// pairs are the same run); when odd it is drawn from second. Equal keys
// must give equal Results, every field and trace sample compared by its
// bits; runs whose keys differ are not compared.
func FuzzEqualKeysEqualResults(f *testing.F) {
	f.Add(uint16(0), uint16(0), byte(1))           // the same run twice
	f.Add(uint16(0x0F3A), uint16(0), byte(2*12))   // derived, nothing flipped
	f.Add(uint16(0x0E5B), uint16(0), byte(2*11))   // Trace flipped: keys differ
	f.Add(uint16(0x0AEF), uint16(0x0AEF), byte(3)) // traced eMPTCP, n5, 1 MB
	f.Add(uint16(0x02C6), uint16(0x0AC6), byte(1)) // drawn apart: keys differ
	f.Add(uint16(0x0894), uint16(0), byte(2*15))   // traced MPTCP, derived
	f.Add(uint16(0x0FFF), uint16(0x0FFF), byte(5)) // every top value
	f.Fuzz(func(t *testing.T, first, second uint16, mode byte) {
		w2 := second
		if mode%2 == 0 {
			w2 = first ^ 1<<(mode/2%16)
		}
		c1, c2 := decodeCoords(first), decodeCoords(w2)
		sc1, proto1, opt1, k1 := viaGrid(t, c1)
		sc2, proto2, opt2, k2 := viaWild(t, c2)
		if c1 == c2 && k1 != k2 {
			t.Fatalf("one run keys apart: %x through the grid, %x through scenario.Wild (%+v)", k1, k2, c1)
		}
		r1 := scenario.Run(sc1, proto1, opt1)
		// An unrelated traced run leaves its state in the pool for the
		// second run to reuse.
		unrelated := scenario.Wild(energy.Nexus5(), scenario.Bad, scenario.Good, scenario.SNG,
			workload.FileDownload{Size: units.ByteSize(0.5 * float64(units.MB))})
		scenario.Run(unrelated, scenario.EMPTCP, scenario.Opts{Seed: 99, Trace: true})
		r2 := scenario.Run(sc2, proto2, opt2)
		if k1 != k2 {
			return
		}
		if diff := bitsDiff(reflect.ValueOf(r1), reflect.ValueOf(r2), "Result"); diff != "" {
			t.Fatalf("equal keys %x, unequal results: %s\nfirst  %+v\nsecond %+v", k1, diff, c1, c2)
		}
	})
}

// bitsDiff walks a and b, values of one type, and names the first place
// where they differ: floats by their IEEE bits (so NaN equals NaN),
// pointers and slices by nil-ness and then contents. It returns "" when
// a and b are bit-identical.
func bitsDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil is %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return bitsDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d (nil %v) vs %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		panic(fmt.Sprintf("bitsDiff: %s has unhandled kind %v", path, a.Kind()))
	}
	return ""
}
