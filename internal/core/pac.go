package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
)

// ProbeOutageStats aggregates one probe's gap classifications into the
// paper's §5.3 conditional probabilities.
type ProbeOutageStats struct {
	Probe atlasdata.ProbeID

	NetworkGaps    int
	NetworkChanged int
	PowerGaps      int
	PowerChanged   int
	NoOutageGaps   int
	NoOutageChange int
}

// PacNetwork returns P(ac|nw): the fraction of network outages
// contemporaneous with an address change.
func (s ProbeOutageStats) PacNetwork() (float64, bool) {
	if s.NetworkGaps == 0 {
		return 0, false
	}
	return float64(s.NetworkChanged) / float64(s.NetworkGaps), true
}

// PacPower returns P(ac|pw) for power outages.
func (s ProbeOutageStats) PacPower() (float64, bool) {
	if s.PowerGaps == 0 {
		return 0, false
	}
	return float64(s.PowerChanged) / float64(s.PowerGaps), true
}

// OutageAnalysis holds the per-probe gap classifications and outage
// statistics for a filtered dataset.
type OutageAnalysis struct {
	// Gaps maps each analyzable probe to its classified gaps.
	Gaps map[atlasdata.ProbeID][]Gap
	// Stats maps each analyzable probe to its aggregate counts. Power
	// counts are only meaningful for v3 probes; v1/v2 hardware reboots
	// during connection establishment poison the inference (§5.1), so
	// AnalyzeOutages never counts power gaps for them.
	Stats map[atlasdata.ProbeID]ProbeOutageStats
	// FirmwareDays are the detected push days (Figure 6's diamonds).
	FirmwareDays []int
	// RebootsPerDay is Figure 6's series: unique probes rebooting per
	// study day, before firmware filtering.
	RebootsPerDay []int
}

// AnalyzeOutages runs the full §5 pipeline over the analyzable probes:
// detect network outages and reboots, find and filter firmware pushes,
// detect power outages, associate everything with inter-connection gaps.
func AnalyzeOutages(ds *atlasdata.Dataset, res *FilterResult) *OutageAnalysis {
	// Pass 1: reboots for every analyzable probe, to locate firmware
	// pushes from the global daily spike profile.
	events := make(map[atlasdata.ProbeID]ProbeEvents, len(res.Views))
	reboots := make(map[atlasdata.ProbeID][]Reboot, len(res.Views))
	for id, view := range res.Views {
		ev := Detect(ds, id, nil).Events(view.Meta)
		events[id], reboots[id] = ev, ev.Reboots
	}
	oa := OutageScaffold(res, reboots)

	// Pass 2: per-probe gap classification.
	for id, ev := range events {
		oa.Gaps[id], oa.Stats[id] = ev.Outages(oa.FirmwareDays, true)
	}
	return oa
}

// OutageScaffold builds an OutageAnalysis with the global state filled
// in — the Figure 6 reboot series and the firmware push days — and
// empty per-probe maps for callers to populate via Outages. The
// firmware profile is global by nature (a push shows up as a
// population-wide spike), so it must exist before any per-probe pass.
func OutageScaffold(res *FilterResult, reboots map[atlasdata.ProbeID][]Reboot) *OutageAnalysis {
	oa := &OutageAnalysis{
		Gaps:  make(map[atlasdata.ProbeID][]Gap, len(res.Views)),
		Stats: make(map[atlasdata.ProbeID]ProbeOutageStats, len(res.Views)),
	}
	oa.RebootsPerDay = RebootsPerDay(reboots)
	oa.FirmwareDays = DetectFirmwareDays(oa.RebootsPerDay)
	return oa
}

// Outages runs pass 2 of the outage pipeline over one probe's events,
// once the firmware days are known: firmware filtering, power-outage
// qualification from the resolved reboot gaps, classification of every
// gap, and the probe's outage statistics. Power counts need v3
// hardware: v1/v2 reboots during connection establishment poison the
// inference (§5.1). With keep the classified gaps are returned too (the
// batch Report holds them); the live fold needs only the statistics.
// Run and the live fold share this pass.
func (ev *ProbeEvents) Outages(firmwareDays []int, keep bool) ([]Gap, ProbeOutageStats) {
	kept := FilterFirmwareReboots(ev.Reboots, firmwareDays)
	c := gapClassifier{networks: ev.Networks, powers: PowerOutagesFrom(ev.Reboots, ev.RebootGaps, kept)}
	st := ProbeOutageStats{Probe: ev.Probe}
	var gaps []Gap
	for _, g := range ev.Gaps {
		cause, d := c.classify(g)
		switch {
		case cause == NetworkCause:
			st.NetworkGaps++
			if g.Changed {
				st.NetworkChanged++
			}
		case cause == PowerCause && ev.V3:
			st.PowerGaps++
			if g.Changed {
				st.PowerChanged++
			}
		case cause == NoOutage:
			st.NoOutageGaps++
			if g.Changed {
				st.NoOutageChange++
			}
		}
		if keep {
			gaps = append(gaps, Gap{Probe: ev.Probe, PrevEnd: g.PrevEnd(), NextStart: g.NextStart(), Changed: g.Changed, Cause: cause, OutageDuration: d})
		}
	}
	return gaps, st
}

// MinOutagesForPac is the paper's sample floor: conditional
// probabilities are reported for probes with at least three outages of
// the relevant kind.
const MinOutagesForPac = 3

// PacSample collects the per-probe P(ac|nw) or P(ac|pw) values for a set
// of probes — the ECDF inputs of Figures 7 and 8.
func (oa *OutageAnalysis) PacSample(ids []atlasdata.ProbeID, power bool) *stats.Sample {
	return PacSampleOver(oa.Stats, ids, power)
}

// PacSampleOver is PacSample over an explicit stats map — the seam
// shared with the streaming fold, which computes its stats from
// per-probe event state rather than an OutageAnalysis.
func PacSampleOver(all map[atlasdata.ProbeID]ProbeOutageStats, ids []atlasdata.ProbeID, power bool) *stats.Sample {
	var s stats.Sample
	for _, id := range ids {
		st, ok := all[id]
		if !ok {
			continue
		}
		if power {
			if st.PowerGaps >= MinOutagesForPac {
				p, _ := st.PacPower()
				s.Add(p)
			}
		} else {
			if st.NetworkGaps >= MinOutagesForPac {
				p, _ := st.PacNetwork()
				s.Add(p)
			}
		}
	}
	return &s
}

// ASOutageRow is one row of the paper's Table 6.
type ASOutageRow struct {
	ASN uint32
	// N counts probes with at least three network and three power
	// outages.
	N int
	// Fractions of N at the paper's thresholds.
	NwOver80, NwEq1, PwOver80, PwEq1 float64
}

// Table6MinProbes is the row floor: the paper lists ASes with at least
// five probes whose P(ac|nw) exceeds 0.8 (§5.3).
const Table6MinProbes = 5

// OutagesRows computes Table 6 rows from a stats map over AS groups —
// the seam shared by Run and the streaming fold. N counts the AS's
// probes with at least three outages of each kind; the row appears only
// when at least Table6MinProbes of them have P(ac|nw) > 0.8 — which is
// why the paper's table holds only heavy renumberers (all European).
// Rows are sorted by N descending, then ASN.
func OutagesRows(all map[atlasdata.ProbeID]ProbeOutageStats, groups map[uint32][]atlasdata.ProbeID) []ASOutageRow {
	var rows []ASOutageRow
	for asn, ids := range groups {
		var qual []ProbeOutageStats
		heavy := 0
		for _, id := range ids {
			st := all[id]
			if st.NetworkGaps >= MinOutagesForPac && st.PowerGaps >= MinOutagesForPac {
				qual = append(qual, st)
				if p, _ := st.PacNetwork(); p > 0.8 {
					heavy++
				}
			}
		}
		if heavy < Table6MinProbes {
			continue
		}
		row := ASOutageRow{ASN: asn, N: len(qual)}
		var nw80, nw1, pw80, pw1 int
		for _, st := range qual {
			pnw, _ := st.PacNetwork()
			ppw, _ := st.PacPower()
			if pnw > 0.8 {
				nw80++
			}
			if pnw == 1 {
				nw1++
			}
			if ppw > 0.8 {
				pw80++
			}
			if ppw == 1 {
				pw1++
			}
		}
		n := float64(len(qual))
		row.NwOver80 = float64(nw80) / n
		row.NwEq1 = float64(nw1) / n
		row.PwOver80 = float64(pw80) / n
		row.PwEq1 = float64(pw1) / n
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N > rows[j].N
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}

// OutageDurationBins are Figure 9's histogram edges in seconds:
// <5m, 5-10m, 10-20m, 20-30m, 30-60m, 1-3h, 3-6h, 6-12h, 12-24h, 1-3d,
// 3d-7d, >1w.
var OutageDurationBins = []float64{
	float64(5 * simclock.Minute),
	float64(10 * simclock.Minute),
	float64(20 * simclock.Minute),
	float64(30 * simclock.Minute),
	float64(1 * simclock.Hour),
	float64(3 * simclock.Hour),
	float64(6 * simclock.Hour),
	float64(12 * simclock.Hour),
	float64(24 * simclock.Hour),
	float64(3 * simclock.Day),
	float64(7 * simclock.Day),
}

// OutageDurationBinLabels label the bins above.
var OutageDurationBinLabels = []string{
	"<5m", "5-10m", "10-20m", "20-30m", "30-60m", "1-3h",
	"3-6h", "6-12h", "12-24h", "1-3d", "3d-7d", ">1w",
}

// DurationBinRow is one bar of Figure 9: outages in a duration bin,
// split by whether the gap also changed the address.
type DurationBinRow struct {
	Label      string
	Total      int
	Renumbered int
}

// Pct returns the renumbered share of the bin.
func (r DurationBinRow) Pct() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Renumbered) / float64(r.Total)
}

// DurationBins builds Figure 9 for a set of probes: every network gap
// (all probe versions) and every power gap (v3 only — enforced upstream
// by AnalyzeOutages counting, but the raw gaps here are filtered again
// by version) binned by outage duration.
func (oa *OutageAnalysis) DurationBins(res *FilterResult, ids []atlasdata.ProbeID) []DurationBinRow {
	hist := make([]DurationBinRow, len(OutageDurationBinLabels))
	for i, l := range OutageDurationBinLabels {
		hist[i].Label = l
	}
	binOf := func(d simclock.Duration) int {
		x := float64(d)
		i := sort.SearchFloat64s(OutageDurationBins, x+0.5)
		return i
	}
	for _, id := range ids {
		view, ok := res.Views[id]
		if !ok {
			continue
		}
		v3 := view.Meta.Version == atlasdata.V3
		for _, g := range oa.Gaps[id] {
			if g.Cause == NoOutage {
				continue
			}
			if g.Cause == PowerCause && !v3 {
				continue
			}
			b := binOf(g.OutageDuration)
			hist[b].Total++
			if g.Changed {
				hist[b].Renumbered++
			}
		}
	}
	return hist
}
