// Package energy implements the parameterized multi-interface power model
// and the 3GPP RRC radio state machine that eMPTCP's Energy Information
// Base is computed from (§2.3, §3.3 and Figure 1 of the paper).
//
// # Model
//
// Power while downloading decomposes into:
//
//   - a device base (SoC/platform) drawn whenever a transfer session is in
//     progress, counted once no matter how many radios are up;
//   - a per-radio active base drawn while that radio is powered for
//     transfer; and
//   - a throughput-proportional term per radio (mW per Mbps), following the
//     linear regression models of Huang et al. (MobiSys'12) that the paper
//     builds on.
//
// Counting the device base once is what produces the paper's V-shaped
// "both interfaces are most efficient" region (Figure 3): with a naive
// additive model the region collapses to a line. See DESIGN.md §4.2.
//
// # Fixed overheads
//
// Cellular radios pay fixed energy costs independent of the transfer size:
// the promotion (ramping from idle to the high-power state before any
// packet can move) and the tail (lingering in the high-power state after
// the last packet, 6–12 s depending on the provider). These are modelled
// by the Radio state machine: Idle → Promotion → Active → Tail → Idle.
// WiFi has only a negligible association cost (Figure 1: 0.15 J on the
// Galaxy S3, 0.06 J on the Nexus 5).
package energy

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Interface identifies a network interface type.
type Interface int

// The interface types the paper evaluates.
const (
	WiFi Interface = iota
	Cell3G
	LTE
	numInterfaces
)

// NumInterfaces is the number of modelled interface types.
const NumInterfaces = int(numInterfaces)

// String returns the conventional name of the interface.
func (i Interface) String() string {
	switch i {
	case WiFi:
		return "WiFi"
	case Cell3G:
		return "3G"
	case LTE:
		return "LTE"
	default:
		return fmt.Sprintf("Interface(%d)", int(i))
	}
}

// IsCellular reports whether the interface is a cellular one (subject to
// promotion and tail overheads and to delayed subflow establishment).
func (i Interface) IsCellular() bool { return i == Cell3G || i == LTE }

// RadioParams parameterizes one radio's power behaviour.
type RadioParams struct {
	// Base is the power drawn while the radio is in the active state,
	// excluding the throughput-proportional part.
	Base units.Power
	// PerMbpsDown and PerMbpsUp are the marginal power per Mbps of
	// downlink / uplink traffic.
	PerMbpsDown units.Power
	PerMbpsUp   units.Power
	// PromoDur/PromoPower describe the promotion (idle → active ramp)
	// during which no data can flow.
	PromoDur   float64 // seconds
	PromoPower units.Power
	// TailDur/TailPower describe the post-transfer high-power tail.
	TailDur   float64 // seconds
	TailPower units.Power
	// AssocEnergy is a one-shot cost charged when the radio is first
	// activated (WiFi association; zero for cellular, whose ramp cost is
	// the promotion).
	AssocEnergy units.Energy
	// WeakSignalNominal/WeakSignalPenalty, when both set, model the
	// weak-signal effect (Ding et al. [7], Schulman et al. [31]): an
	// active radio on a degraded channel — link quality q =
	// capacity/nominal below 1 — draws up to WeakSignalPenalty extra
	// power, scaled by (1−q). The paper's energy model omits this; it is
	// disabled (zero) in the default profiles and exercised by the
	// weak-signal ablation, where it closes the TCP-over-WiFi energy gap
	// of EXPERIMENTS.md deviation D1.
	WeakSignalNominal units.BitRate
	WeakSignalPenalty units.Power
	// FACHDur/FACHPower/FACHRate, when all set, add the 3G FACH
	// intermediate state of Balasubramanian et al. [1]: after DCH
	// inactivity the radio drops to the shared channel (FACH) instead of
	// straight to the tail's end — roughly half DCH power — and can carry
	// up to FACHRate there; demand beyond that re-promotes to DCH. The
	// TailDur then covers the DCH inactivity timer and FACHDur the FACH
	// one. Zero (the default) keeps the two-state promotion/tail machine,
	// which is accurate for LTE and is what Figure 1 calibrates.
	FACHDur   float64
	FACHPower units.Power
	FACHRate  units.BitRate
}

// FixedOverhead returns the fixed energy cost of a minimal transfer on an
// idle radio: promotion + full tail (+ FACH dwell when modelled) +
// association. This is exactly the quantity Figure 1 plots.
func (p RadioParams) FixedOverhead() units.Energy {
	return p.PromoPower.Over(units.Duration(p.PromoDur)) +
		p.TailPower.Over(units.Duration(p.TailDur)) +
		p.FACHPower.Over(units.Duration(p.FACHDur)) +
		p.AssocEnergy
}

// ActivePower returns the radio's power at the given downlink/uplink
// throughputs while in the active state. The pointer receiver keeps the
// accountant's per-interval call from copying the whole parameter set.
func (p *RadioParams) ActivePower(down, up units.BitRate) units.Power {
	return p.Base +
		units.Power(down.Mbit())*p.PerMbpsDown +
		units.Power(up.Mbit())*p.PerMbpsUp
}

// DeviceProfile bundles the per-device parameters. The two profiles from
// the paper's Table 1 are provided by GalaxyS3 and Nexus5.
type DeviceProfile struct {
	Name string

	// Table 1 metadata (informational).
	ReleaseDate   string
	AppProcessor  string
	Semiconductor string
	Android       string
	Kernel        string
	WiFiChipset   string

	// DeviceBase is the platform power drawn during a transfer session,
	// counted once regardless of how many radios are active.
	DeviceBase units.Power

	// BatteryCapacity is the battery's usable energy, for expressing a
	// run's consumption as a battery fraction.
	BatteryCapacity units.Energy

	Radios [NumInterfaces]RadioParams
}

// BatteryFraction expresses an energy amount as a fraction of the
// device's battery capacity (0 when the capacity is unknown).
func (d *DeviceProfile) BatteryFraction(e units.Energy) float64 {
	if d.BatteryCapacity <= 0 {
		return 0
	}
	return float64(e) / float64(d.BatteryCapacity)
}

// GalaxyS3 returns the Samsung Galaxy S3 profile. Cellular radio
// parameters follow Huang et al. (MobiSys'12); the WiFi active base, WiFi
// marginal power and device base are calibrated so the generated Energy
// Information Base reproduces the paper's Table 2 thresholds across its
// whole range (the WiFi-only threshold column pins α_w ≈ 50 mW/Mbps and
// β_dev+β_w ≈ 670 mW; see DESIGN.md §1).
func GalaxyS3() *DeviceProfile {
	return &DeviceProfile{
		Name:            "Samsung Galaxy S3",
		ReleaseDate:     "May 2012",
		AppProcessor:    "Qualcomm MSM8960",
		Semiconductor:   "28nm LP",
		Android:         "4.1.2 (Jelly Bean)",
		Kernel:          "3.0.48",
		WiFiChipset:     "Broadcom BCM4334",
		DeviceBase:      units.MilliwattPower(415),
		BatteryCapacity: 28700, // 2100 mAh at 3.8 V
		Radios: [NumInterfaces]RadioParams{
			WiFi: {
				Base:        units.MilliwattPower(255),
				PerMbpsDown: units.MilliwattPower(50),
				PerMbpsUp:   units.MilliwattPower(283),
				TailDur:     0.24,
				TailPower:   units.MilliwattPower(250),
				AssocEnergy: 0.09,
			},
			Cell3G: {
				Base:        units.MilliwattPower(818),
				PerMbpsDown: units.MilliwattPower(122),
				PerMbpsUp:   units.MilliwattPower(868),
				PromoDur:    2.0,
				PromoPower:  units.MilliwattPower(817),
				// 3G uses the three-state machine of Balasubramanian et
				// al. [1]: a DCH inactivity tail, then a FACH dwell at
				// roughly half power that can carry low-rate traffic.
				// The split keeps the Figure 1 total (~8.1 J).
				TailDur:   3.5,
				TailPower: units.MilliwattPower(803),
				FACHDur:   8,
				FACHPower: units.MilliwattPower(450),
				FACHRate:  200 * units.Kbps,
			},
			LTE: {
				Base:        units.MilliwattPower(1288),
				PerMbpsDown: units.MilliwattPower(52),
				PerMbpsUp:   units.MilliwattPower(438),
				PromoDur:    0.26,
				PromoPower:  units.MilliwattPower(1210),
				TailDur:     11.576,
				TailPower:   units.MilliwattPower(1060),
			},
		},
	}
}

// Nexus5 returns the LG Nexus 5 profile: a newer process node (Table 1)
// with slightly lower fixed overheads, matching Figure 1.
func Nexus5() *DeviceProfile {
	return &DeviceProfile{
		Name:            "LG Nexus 5",
		ReleaseDate:     "Nov 2013",
		AppProcessor:    "Qualcomm 8974-AA",
		Semiconductor:   "28nm HPM",
		Android:         "4.4.4 (KitKat)",
		Kernel:          "3.4.0",
		WiFiChipset:     "Broadcom BCM4339",
		DeviceBase:      units.MilliwattPower(395),
		BatteryCapacity: 31500, // 2300 mAh at 3.8 V
		Radios: [NumInterfaces]RadioParams{
			WiFi: {
				Base:        units.MilliwattPower(230),
				PerMbpsDown: units.MilliwattPower(45),
				PerMbpsUp:   units.MilliwattPower(260),
				TailDur:     0.12,
				TailPower:   units.MilliwattPower(220),
				AssocEnergy: 0.034,
			},
			Cell3G: {
				Base:        units.MilliwattPower(780),
				PerMbpsDown: units.MilliwattPower(115),
				PerMbpsUp:   units.MilliwattPower(820),
				PromoDur:    1.8,
				PromoPower:  units.MilliwattPower(790),
				TailDur:     3.5,
				TailPower:   units.MilliwattPower(760),
				FACHDur:     8,
				FACHPower:   units.MilliwattPower(430),
				FACHRate:    200 * units.Kbps,
			},
			LTE: {
				Base:        units.MilliwattPower(1210),
				PerMbpsDown: units.MilliwattPower(49),
				PerMbpsUp:   units.MilliwattPower(410),
				PromoDur:    0.24,
				PromoPower:  units.MilliwattPower(1180),
				TailDur:     11.4,
				TailPower:   units.MilliwattPower(985),
			},
		},
	}
}

// PathSet selects which interfaces a steady-state computation assumes are
// carrying traffic.
type PathSet struct {
	UseWiFi bool
	UseLTE  bool
}

// Named path sets.
var (
	WiFiOnly = PathSet{UseWiFi: true}
	LTEOnly  = PathSet{UseLTE: true}
	Both     = PathSet{UseWiFi: true, UseLTE: true}
)

// String returns a short description of the path set.
func (ps PathSet) String() string {
	switch ps {
	case WiFiOnly:
		return "WiFi-only"
	case LTEOnly:
		return "LTE-only"
	case Both:
		return "Both"
	default:
		return "None"
	}
}

// SteadyPower returns the device's total steady-state power while
// downloading with the given path set at the given per-interface downlink
// throughputs. The device base is counted once; unused interfaces
// contribute nothing (their tails are a fixed, not steady-state, cost).
func (d *DeviceProfile) SteadyPower(ps PathSet, wifi, lte units.BitRate) units.Power {
	p := d.DeviceBase
	if ps.UseWiFi {
		p += d.Radios[WiFi].ActivePower(wifi, 0)
	}
	if ps.UseLTE {
		p += d.Radios[LTE].ActivePower(lte, 0)
	}
	return p
}

// PerByteEnergy returns the steady-state energy per downloaded byte
// (J/byte) for the given path set and throughputs. This is the quantity
// the Energy Information Base is built from (§3.3): eMPTCP cannot predict
// how much data remains, so it assumes a large transfer and optimizes
// per-byte consumption. A path set with zero aggregate throughput yields
// +Inf.
func (d *DeviceProfile) PerByteEnergy(ps PathSet, wifi, lte units.BitRate) float64 {
	return d.PerByteEnergyDir(ps, wifi, lte, false)
}

// PerByteEnergyDir is PerByteEnergy with an explicit direction: uplink
// transfers pay each radio's (much larger) per-Mbps transmit power.
func (d *DeviceProfile) PerByteEnergyDir(ps PathSet, wifi, lte units.BitRate, uplink bool) float64 {
	var agg units.BitRate
	p := d.DeviceBase
	add := func(params RadioParams, rate units.BitRate) {
		agg += rate
		if uplink {
			p += params.ActivePower(0, rate)
		} else {
			p += params.ActivePower(rate, 0)
		}
	}
	if ps.UseWiFi {
		add(d.Radios[WiFi], wifi)
	}
	if ps.UseLTE {
		add(d.Radios[LTE], lte)
	}
	if agg <= 0 {
		return math.Inf(1)
	}
	return float64(p) / agg.BytesPerSecond()
}

// BestSinglePath returns whichever of WiFi-only / LTE-only is more
// efficient at the given throughputs, with its per-byte energy.
func (d *DeviceProfile) BestSinglePath(wifi, lte units.BitRate) (PathSet, float64) {
	ew := d.PerByteEnergy(WiFiOnly, wifi, lte)
	el := d.PerByteEnergy(LTEOnly, wifi, lte)
	if ew <= el {
		return WiFiOnly, ew
	}
	return LTEOnly, el
}

// TransferEnergy returns the total energy to download size bytes with the
// given path set at the given steady throughputs, including the cellular
// fixed overheads (promotion before and full tail after) when LTE is used
// and the WiFi association cost when WiFi is used. This finite-transfer
// quantity is what Figure 4's operating regions are computed from.
func (d *DeviceProfile) TransferEnergy(ps PathSet, size units.ByteSize, wifi, lte units.BitRate) units.Energy {
	var agg units.BitRate
	if ps.UseWiFi {
		agg += wifi
	}
	if ps.UseLTE {
		agg += lte
	}
	if agg <= 0 {
		return units.Energy(math.Inf(1))
	}
	dur := agg.TimeToSend(size)
	e := d.SteadyPower(ps, wifi, lte).Over(dur)
	if ps.UseWiFi {
		e += d.Radios[WiFi].AssocEnergy
	}
	if ps.UseLTE {
		e += d.Radios[LTE].FixedOverhead()
	}
	return e
}

// WithCellular3G returns a copy of the profile whose cellular slot carries
// the 3G radio parameters instead of LTE's. The simulator's scenario layer
// treats the LTE slot as "the cellular interface", so this is how a
// 3G-only configuration (lower fixed overheads, Figure 1, but a slower and
// less rate-efficient radio) is simulated end to end.
func (d *DeviceProfile) WithCellular3G() *DeviceProfile {
	c := *d
	c.Name = d.Name + " (3G cellular)"
	c.Radios[LTE] = d.Radios[Cell3G]
	return &c
}
