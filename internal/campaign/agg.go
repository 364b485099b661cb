package campaign

import (
	"encoding/hex"
	"encoding/json"
	"math"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// cellAcc is the streaming accumulator for one aggregation cell: fixed
// size regardless of how many runs fold into it. Aggregation is the
// only thing the executor retains, so campaign memory is
// O(cells + workers·shard), never O(runs).
type cellAcc struct {
	runs      uint64
	completed uint64
	lteUsed   uint64
	energy    stats.Stream // J, all runs
	dltime    stats.Stream // s, completed runs only
	jpb       stats.Stream // J/B, runs with finite J/B
}

func (c *cellAcc) add(r *scenario.Result) {
	c.runs++
	c.energy.Add(float64(r.Energy))
	if r.Completed {
		c.completed++
		c.dltime.Add(r.CompletionTime)
	}
	if r.LTEUsed {
		c.lteUsed++
	}
	if !math.IsNaN(r.JPerByte) && !math.IsInf(r.JPerByte, 0) {
		c.jpb.Add(r.JPerByte)
	}
}

func (c *cellAcc) merge(o *cellAcc) {
	c.runs += o.runs
	c.completed += o.completed
	c.lteUsed += o.lteUsed
	c.energy.Merge(o.energy)
	c.dltime.Merge(o.dltime)
	c.jpb.Merge(o.jpb)
}

// agg is one shard's (or the campaign's) full accumulator array, one
// cellAcc per grid cell.
type agg struct {
	cells []cellAcc
}

func newAgg(n int) *agg { return &agg{cells: make([]cellAcc, n)} }

func (a *agg) add(cell int, r *scenario.Result) { a.cells[cell].add(r) }

func (a *agg) merge(o *agg) {
	for i := range a.cells {
		a.cells[i].merge(&o.cells[i])
	}
}

// Dist is the JSON projection of one stats.Stream. Zero-valued when
// N == 0 (JSON cannot carry NaN).
type Dist struct {
	N    uint64     `json:"n"`
	Mean float64    `json:"mean"`
	SEM  float64    `json:"sem"`
	CI95 [2]float64 `json:"ci95"`
	Min  float64    `json:"min"`
	Max  float64    `json:"max"`
}

func distOf(s stats.Stream) Dist {
	if s.N == 0 {
		return Dist{}
	}
	lo, hi := s.CI95()
	d := Dist{N: s.N, Mean: s.Mean(), SEM: s.SEM(), CI95: [2]float64{lo, hi}, Min: s.Min(), Max: s.Max()}
	if s.N == 1 { // SEM and CI are NaN with one sample; flatten to the point
		d.SEM, d.CI95 = 0, [2]float64{d.Mean, d.Mean}
	}
	return d
}

// CellAgg is one cell of the campaign's published aggregates, labelled
// with the cell's coordinates.
type CellAgg struct {
	WiFi      string  `json:"wifi"`
	LTE       string  `json:"lte"`
	SizeMB    float64 `json:"size_mb"`
	Protocol  string  `json:"protocol"`
	Runs      uint64  `json:"runs"`
	Completed uint64  `json:"completed"`
	LTEUsed   uint64  `json:"lte_used"`
	EnergyJ   Dist    `json:"energy_j"`
	TimeS     Dist    `json:"time_s"`
	JPerByte  Dist    `json:"j_per_byte"`
}

// Aggregates is a campaign's complete published result.
type Aggregates struct {
	Spec       Spec      `json:"spec"`
	SpecDigest string    `json:"spec_digest"`
	TotalRuns  uint64    `json:"total_runs"`
	Cells      []CellAgg `json:"cells"`
}

// aggregates projects the accumulator array into the published form,
// in cell-index order (the spec's wifi × lte × size × protocol order).
func (g *grid) aggregates(a *agg) (Aggregates, error) {
	d, err := g.spec.Digest()
	if err != nil {
		return Aggregates{}, err
	}
	out := Aggregates{
		Spec:       g.spec,
		SpecDigest: hex.EncodeToString(d[:]),
		Cells:      make([]CellAgg, 0, len(a.cells)),
	}
	i := 0
	for wi := range g.wifi {
		for li := range g.lte {
			for si := range g.spec.SizesMB {
				for pi := range g.protos {
					c := &a.cells[i]
					out.TotalRuns += c.runs
					out.Cells = append(out.Cells, CellAgg{
						WiFi:      g.spec.WiFi[wi],
						LTE:       g.spec.LTE[li],
						SizeMB:    g.spec.SizesMB[si],
						Protocol:  g.spec.Protocols[pi],
						Runs:      c.runs,
						Completed: c.completed,
						LTEUsed:   c.lteUsed,
						EnergyJ:   distOf(c.energy),
						TimeS:     distOf(c.dltime),
						JPerByte:  distOf(c.jpb),
					})
					i++
				}
			}
		}
	}
	return out, nil
}

// MarshalCanonical renders the aggregates in the campaign's canonical
// byte form: encoding/json with struct-order keys plus a trailing
// newline. Two campaigns with equal digests produce equal bytes — the
// acceptance check diffs these directly.
func (ag *Aggregates) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(ag, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
