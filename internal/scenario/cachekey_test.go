package scenario

import (
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func mustKey(t *testing.T, sc Scenario, proto Protocol, opt Opts) runcache.Key {
	t.Helper()
	k, ok := CacheKey(sc, proto, opt)
	if !ok {
		t.Fatalf("scenario %q is not cache-eligible", sc.Name)
	}
	return k
}

// TestCacheKeyExact pins two inputs that a key rendered through the
// units' rounded String methods could not tell apart: a transfer size
// 1000 B apart and an LTE base power 0.3 mW apart. Both pairs simulate
// to different energies, so they must get different keys.
func TestCacheKeyExact(t *testing.T) {
	opt := Opts{Seed: 1}
	size := workload.FileDownload{Size: 16 * units.MB}
	bigger := workload.FileDownload{Size: 16*units.MB + 1000}
	a := StaticLab(energy.GalaxyS3(), 6, 4.5, size)
	b := StaticLab(energy.GalaxyS3(), 6, 4.5, bigger)
	if mustKey(t, a, MPTCP, opt) == mustKey(t, b, MPTCP, opt) {
		t.Error("16 MB and 16 MB + 1000 B downloads share a key")
	}
	if ea, eb := Run(a, MPTCP, opt).Energy, Run(b, MPTCP, opt).Energy; ea == eb {
		t.Errorf("both sizes simulate to %v; the pair no longer shows the collision", ea)
	}

	dev := energy.GalaxyS3()
	dev.Radios[energy.LTE].Base += units.MilliwattPower(0.3)
	c := StaticLab(dev, 6, 4.5, size)
	if mustKey(t, a, MPTCP, opt) == mustKey(t, c, MPTCP, opt) {
		t.Error("S3 profiles 0.3 mW apart in LTE base power share a key")
	}
	if ea, ec := Run(a, MPTCP, opt).Energy, Run(c, MPTCP, opt).Energy; ea == ec {
		t.Errorf("both profiles simulate to %v; the pair no longer shows the collision", ea)
	}
}

// keyBase is the reference input of the leaf-flip test: every pointer
// set and every top-level value non-default.
func keyBase(w workload.Workload) (Scenario, Opts) {
	sc := StaticLab(energy.GalaxyS3(), 6, 4.5, w)
	cc := core.DefaultConfig()
	sc.CoreConfig = &cc
	sc.Horizon = 300
	sc.AppPower = units.MilliwattPower(250)
	return sc, Opts{Seed: 7, Trace: true, TraceStep: 0.5}
}

var keyWorkloads = []workload.Workload{
	workload.FileDownload{Size: 4 * units.MB},
	workload.FileUpload{Size: 4 * units.MB},
	workload.Bulk{},
	workload.DefaultWebPage(),
	workload.DefaultStreaming(),
}

// leafPaths lists the field/index path to every leaf under v.
func leafPaths(v reflect.Value, prefix []int) [][]int {
	var out [][]int
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, leafPaths(v.Field(i), append(prefix[:len(prefix):len(prefix)], i))...)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, leafPaths(v.Index(i), append(prefix[:len(prefix):len(prefix)], i))...)
		}
	default:
		out = append(out, prefix)
	}
	return out
}

// flipLeaf moves the leaf at path under the addressable v by the
// smallest step its kind allows and returns a name for it.
func flipLeaf(t *testing.T, v reflect.Value, path []int) string {
	t.Helper()
	name := v.Type().String()
	for _, i := range path {
		if v.Kind() == reflect.Struct {
			name += "." + v.Type().Field(i).Name
			v = v.Field(i)
		} else {
			name += "[" + strconv.Itoa(i) + "]"
			v = v.Index(i)
		}
	}
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no flip for kind %v", name, v.Kind())
	}
	return name
}

// TestCacheKeyLeafFlip changes one input leaf at a time, by one ULP, one
// unit, a flipped bool or one appended byte, and requires the key to
// change every time. Scenario leaves go through CacheKey; the run tail
// (protocol and options) goes through RunKey over the reference base.
func TestCacheKeyLeafFlip(t *testing.T) {
	seen := map[runcache.Key]string{}
	record := func(name string, k runcache.Key) {
		t.Helper()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", name, prev)
		}
		seen[k] = name
	}
	check := func(name string, sc Scenario, opt Opts) {
		t.Helper()
		record(name, mustKey(t, sc, EMPTCP, opt))
	}
	roots := []struct {
		name string
		get  func(sc *Scenario) reflect.Value // addressable root in sc
	}{
		{"device", func(sc *Scenario) reflect.Value { return reflect.ValueOf(sc.Device).Elem() }},
		{"core", func(sc *Scenario) reflect.Value { return reflect.ValueOf(sc.CoreConfig).Elem() }},
		{"work", func(sc *Scenario) reflect.Value {
			w := reflect.New(reflect.TypeOf(sc.Work)).Elem()
			w.Set(reflect.ValueOf(sc.Work))
			return w
		}},
	}
	for wi, w := range keyWorkloads {
		sc, opt := keyBase(w)
		check(reflect.TypeOf(w).String(), sc, opt)
		for _, r := range roots {
			if r.name != "work" && wi > 0 {
				continue // the other roots do not depend on the workload
			}
			paths := leafPaths(r.get(&sc), nil)
			if len(paths) == 0 && r.name != "work" {
				t.Fatalf("no leaves under the %s root", r.name)
			}
			for _, path := range paths {
				sc, opt := keyBase(w)
				root := r.get(&sc)
				name := flipLeaf(t, root, path)
				if r.name == "work" {
					sc.Work = root.Interface().(workload.Workload)
				}
				check(name, sc, opt)
			}
		}
	}

	sc, opt := keyBase(keyWorkloads[0])
	flips := map[string]func(sc *Scenario, opt *Opts){
		"Name":     func(sc *Scenario, _ *Opts) { sc.Name += "x" },
		"linkSig":  func(sc *Scenario, _ *Opts) { sc.linkSig += "x" },
		"WiFiRTT":  func(sc *Scenario, _ *Opts) { sc.WiFiRTT = math.Nextafter(sc.WiFiRTT, 1) },
		"LTERTT":   func(sc *Scenario, _ *Opts) { sc.LTERTT = math.Nextafter(sc.LTERTT, 1) },
		"Horizon":  func(sc *Scenario, _ *Opts) { sc.Horizon = math.Nextafter(sc.Horizon, 1e9) },
		"AppPower": func(sc *Scenario, _ *Opts) { sc.AppPower = units.Power(math.Nextafter(float64(sc.AppPower), 1e9)) },
		"nil core": func(sc *Scenario, _ *Opts) { sc.CoreConfig = nil },
	}
	for name, flip := range flips {
		sc, opt := sc, opt
		flip(&sc, &opt)
		check(name, sc, opt)
	}

	base, ok := BaseKey(sc)
	if !ok {
		t.Fatal("reference scenario has no base key")
	}
	tail := map[string]func(proto *Protocol, opt *Opts){
		"Protocol":  func(proto *Protocol, _ *Opts) { *proto = MPTCP },
		"Seed":      func(_ *Protocol, opt *Opts) { opt.Seed++ },
		"Trace":     func(_ *Protocol, opt *Opts) { opt.Trace = !opt.Trace },
		"TraceStep": func(_ *Protocol, opt *Opts) { opt.TraceStep = math.Nextafter(opt.TraceStep, 1) },
	}
	for name, flip := range tail {
		proto, opt := EMPTCP, opt
		flip(&proto, &opt)
		k, ok := RunKey(base, proto, opt)
		if !ok {
			t.Fatalf("%s: RunKey not ok", name)
		}
		record(name, k)
	}

	// The default TraceStep is 1 s, so leaving it unset keys the same run.
	opt.TraceStep = 0
	zero := mustKey(t, sc, EMPTCP, opt)
	opt.TraceStep = 1
	if one := mustKey(t, sc, EMPTCP, opt); zero != one {
		t.Error("TraceStep 0 and 1 get different keys")
	}
}

// TestRunKeyComposesBaseKey checks that the two-level key is the only
// encoding: RunKey over BaseKey equals CacheKey for every library
// scenario, protocol and option spelling, and a Recorder makes both
// ineligible.
func TestRunKeyComposesBaseKey(t *testing.T) {
	dev := energy.GalaxyS3()
	work := workload.FileDownload{Size: 4 * units.MB}
	library := []Scenario{
		StaticLab(dev, 6, 4.5, work),
		RandomBandwidth(dev, work),
		BackgroundTraffic(dev, 2, 0.05, 0.025, work),
		Mobility(dev),
		MobilityMultiAP(dev),
		Wild(dev, Good, Bad, AMS, work),
		WebBrowsing(dev),
	}
	opts := []Opts{{}, {Seed: 7}, {Seed: -3, Trace: true, TraceStep: 0.5}}
	for _, sc := range library {
		base, ok := BaseKey(sc)
		if !ok {
			t.Fatalf("%s: library scenario has no base key", sc.Name)
		}
		for _, proto := range AllProtocols {
			for _, opt := range opts {
				want := mustKey(t, sc, proto, opt)
				if got, ok := RunKey(base, proto, opt); !ok || got != want {
					t.Errorf("%s/%v/%+v: RunKey(BaseKey) = %x (ok=%v), CacheKey = %x", sc.Name, proto, opt, got, ok, want)
				}
			}
		}
		rec := Opts{Seed: 1, Recorder: trace.NewMetrics(1)}
		if _, ok := RunKey(base, MPTCP, rec); ok {
			t.Errorf("%s: RunKey is ok with a Recorder", sc.Name)
		}
		if _, ok := CacheKey(sc, MPTCP, rec); ok {
			t.Errorf("%s: CacheKey is ok with a Recorder", sc.Name)
		}
	}
	custom := StaticLab(dev, 6, 4.5, work)
	custom.linkSig = ""
	if _, ok := BaseKey(custom); ok {
		t.Error("a scenario without a link signature has a base key")
	}
}

// TestCacheKeyCoversEveryField fails when Scenario or Opts grows a
// field, so a new input cannot silently drop out of the key.
func TestCacheKeyCoversEveryField(t *testing.T) {
	known := map[reflect.Type][]string{
		reflect.TypeOf(Scenario{}): {"Name", "Device", "WiFi", "LTE", "WiFiRTT", "LTERTT", "Work",
			"Horizon", "CoreConfig", "AppPower", "linkSig"},
		reflect.TypeOf(Opts{}): {"Seed", "Trace", "TraceStep", "Recorder", "Cache"},
	}
	for typ, fields := range known {
		if typ.NumField() != len(fields) {
			t.Errorf("%v has %d fields, the key covers %d: encode the new one in BaseKey or RunKey, bump KeyVersion and add it to TestCacheKeyLeafFlip", typ, typ.NumField(), len(fields))
			continue
		}
		for i, f := range fields {
			if got := typ.Field(i).Name; got != f {
				t.Errorf("%v field %d is %s, want %s", typ, i, got, f)
			}
		}
	}
}

// TestCacheKeyGolden pins the key of one reference run. A change to the
// encoding or to a digested type's fields moves it: bump KeyVersion,
// then update the hex here.
func TestCacheKeyGolden(t *testing.T) {
	sc := StaticLab(energy.GalaxyS3(), 6, 4.5, workload.FileDownload{Size: 16 * units.MB})
	k := mustKey(t, sc, MPTCP, Opts{Seed: 1})
	const want = "6d8ad33b6e39eb9ced0988ae533b8c224b5d77755d9352ef3addd3ccbd0b5d87"
	if got := hex.EncodeToString(k[:]); got != want {
		t.Errorf("reference key = %s, want %s", got, want)
	}
}
