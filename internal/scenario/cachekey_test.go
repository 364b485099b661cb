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
// change every time.
func TestCacheKeyLeafFlip(t *testing.T) {
	seen := map[runcache.Key]string{}
	check := func(name string, sc Scenario, opt Opts) {
		t.Helper()
		k := mustKey(t, sc, EMPTCP, opt)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", name, prev)
		}
		seen[k] = name
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
		"Name":      func(sc *Scenario, _ *Opts) { sc.Name += "x" },
		"linkSig":   func(sc *Scenario, _ *Opts) { sc.linkSig += "x" },
		"WiFiRTT":   func(sc *Scenario, _ *Opts) { sc.WiFiRTT = math.Nextafter(sc.WiFiRTT, 1) },
		"LTERTT":    func(sc *Scenario, _ *Opts) { sc.LTERTT = math.Nextafter(sc.LTERTT, 1) },
		"Horizon":   func(sc *Scenario, _ *Opts) { sc.Horizon = math.Nextafter(sc.Horizon, 1e9) },
		"AppPower":  func(sc *Scenario, _ *Opts) { sc.AppPower = units.Power(math.Nextafter(float64(sc.AppPower), 1e9)) },
		"nil core":  func(sc *Scenario, _ *Opts) { sc.CoreConfig = nil },
		"Seed":      func(_ *Scenario, opt *Opts) { opt.Seed++ },
		"Trace":     func(_ *Scenario, opt *Opts) { opt.Trace = !opt.Trace },
		"TraceStep": func(_ *Scenario, opt *Opts) { opt.TraceStep = math.Nextafter(opt.TraceStep, 1) },
	}
	for name, flip := range flips {
		sc, opt := sc, opt
		flip(&sc, &opt)
		check(name, sc, opt)
	}

	// The default TraceStep is 1 s, so leaving it unset keys the same run.
	opt.TraceStep = 0
	zero := mustKey(t, sc, EMPTCP, opt)
	opt.TraceStep = 1
	if one := mustKey(t, sc, EMPTCP, opt); zero != one {
		t.Error("TraceStep 0 and 1 get different keys")
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
			t.Errorf("%v has %d fields, the key covers %d: encode the new one in cacheKey, bump keyVersion and add it to TestCacheKeyLeafFlip", typ, typ.NumField(), len(fields))
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
// encoding or to a digested type's fields moves it: bump keyVersion,
// then update the hex here.
func TestCacheKeyGolden(t *testing.T) {
	sc := StaticLab(energy.GalaxyS3(), 6, 4.5, workload.FileDownload{Size: 16 * units.MB})
	k := mustKey(t, sc, MPTCP, Opts{Seed: 1})
	const want = "b9d267031091d613fd869d03f106d364ba39afd289423238cceb53b872ffee2e"
	if got := hex.EncodeToString(k[:]); got != want {
		t.Errorf("reference key = %s, want %s", got, want)
	}
}
