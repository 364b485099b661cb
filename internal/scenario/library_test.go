package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestStaticLabShape(t *testing.T) {
	sc := StaticLab(s3(), 7.5, 4.5, workload.FileDownload{Size: units.MB})
	if !strings.Contains(sc.Name, "7.5") {
		t.Errorf("name %q missing WiFi rate", sc.Name)
	}
	eng := sim.New()
	if got := sc.WiFi(eng, simrng.New(1)).Rate(); got != units.MbpsRate(7.5) {
		t.Errorf("WiFi rate = %v", got)
	}
	if got := sc.LTE(eng, simrng.New(1)).Rate(); got != units.MbpsRate(4.5) {
		t.Errorf("LTE rate = %v", got)
	}
	if sc.WiFiRTT >= sc.LTERTT {
		t.Error("lab LTE RTT should exceed WiFi RTT")
	}
}

func TestWildDrawBounds(t *testing.T) {
	for _, q := range []Quality{Bad, Good} {
		sc := Wild(s3(), q, q, WDC, workload.FileDownload{Size: units.MB})
		for seed := int64(0); seed < 50; seed++ {
			eng := sim.New()
			src := simrng.New(seed)
			w := sc.WiFi(eng, src.Split(0xaa)).Rate()
			l := sc.LTE(eng, src.Split(0xbb)).Rate()
			for _, r := range []units.BitRate{w, l} {
				if q == Good && r < QualityThreshold {
					t.Fatalf("Good draw %v below the 8 Mbps threshold", r)
				}
				if q == Bad && r >= QualityThreshold {
					t.Fatalf("Bad draw %v at/above the 8 Mbps threshold", r)
				}
			}
		}
	}
}

func TestServerLocRTTOrdering(t *testing.T) {
	// Farther servers have larger RTTs: WDC < AMS < SNG, and the LTE path
	// always adds core-network latency over the WiFi path.
	var prevWiFi float64
	for _, loc := range AllServerLocs {
		w, l := loc.rtts()
		if l <= w {
			t.Errorf("%v: LTE RTT %v not above WiFi RTT %v", loc, l, w)
		}
		if w <= prevWiFi {
			t.Errorf("%v: RTT %v not above previous location's %v", loc, w, prevWiFi)
		}
		prevWiFi = w
	}
}

func TestServerLocStrings(t *testing.T) {
	want := map[ServerLoc]string{WDC: "WDC", AMS: "AMS", SNG: "SNG"}
	for loc, name := range want {
		if loc.String() != name {
			t.Errorf("%d.String() = %q, want %q", loc, loc.String(), name)
		}
	}
	if ServerLoc(9).String() != "ServerLoc(9)" {
		t.Error("unknown location name wrong")
	}
}

func TestQualityStrings(t *testing.T) {
	if Good.String() != "Good" || Bad.String() != "Bad" {
		t.Error("quality names wrong")
	}
}

func TestMobilityScenarioShape(t *testing.T) {
	sc := Mobility(s3())
	if sc.Horizon != MobilityDuration {
		t.Errorf("horizon = %v, want %v", sc.Horizon, MobilityDuration)
	}
	if _, ok := sc.Work.(workload.Bulk); !ok {
		t.Errorf("mobility workload = %T, want Bulk", sc.Work)
	}
}

func TestWebBrowsingScenarioShape(t *testing.T) {
	sc := WebBrowsing(s3())
	w, ok := sc.Work.(workload.WebPage)
	if !ok {
		t.Fatalf("workload = %T, want WebPage", sc.Work)
	}
	if w.Objects != 107 || w.Connections != 6 {
		t.Errorf("page = %d objects / %d connections, want 107/6", w.Objects, w.Connections)
	}
}

func TestLabLTERateInBand(t *testing.T) {
	// DESIGN.md D3: the dynamic-lab effective LTE rate is inferred from
	// the paper's completion times and should stay in the 3–5 Mbps band.
	if labLTERate < units.MbpsRate(3) || labLTERate > units.MbpsRate(5) {
		t.Errorf("labLTERate = %v, outside the documented 3–5 Mbps band", labLTERate)
	}
}

func TestRandomBandwidthUsesPaperParameters(t *testing.T) {
	sc := RandomBandwidth(s3(), workload.FileDownload{Size: units.MB})
	eng := sim.New()
	proc := sc.WiFi(eng, simrng.New(3))
	// §4.3: ≤1 Mbps or ≥10 Mbps depending on state.
	lowSeen, highSeen := false, false
	check := func(r units.BitRate) {
		switch {
		case r <= units.MbpsRate(1):
			lowSeen = true
		case r >= units.MbpsRate(10):
			highSeen = true
		default:
			t.Fatalf("modulator rate %v between the paper's bands", r)
		}
	}
	check(proc.Rate())
	eng.Horizon = 500
	for eng.Step() {
		check(proc.Rate())
	}
	if !lowSeen || !highSeen {
		t.Error("modulator did not visit both bands in 500 s")
	}
}
