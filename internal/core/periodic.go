package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/stats"
)

// periodicThreshold is the paper's classification bound (§4.4): a probe
// is periodic at duration d when its total time fraction at d exceeds
// 0.25 — low enough to tolerate outage-shortened and harmonic-lengthened
// sessions around the true period.
const periodicThreshold = 0.25

// maxSlack is the paper's tolerance when testing whether durations
// exceed the period: d is adjusted to d + 5% (§4.4.2).
const maxSlack = 1.05

// minDurationsForPeriodic guards the classifier against trivial modes: a
// probe with only a handful of bounded durations always concentrates a
// quarter of its mass somewhere. Periodicity needs a recurring pattern.
const minDurationsForPeriodic = 4

// maxPeriodicHours bounds plausible ISP session caps; the longest the
// paper observes is BT's two weeks (337h). Months-long "modes" are
// coincidences of sparse DHCP histories, not policy.
const maxPeriodicHours = 21 * 24

// PeriodicProbe is one probe classified as periodically renumbered.
type PeriodicProbe struct {
	Probe atlasdata.ProbeID
	// D is the periodic duration in (quantised) hours.
	D float64
	// Frac is the probe's total time fraction at D.
	Frac float64
	// MaxHours is the probe's largest bounded address duration, raw.
	MaxHours float64
	// MaxLeD reports MaxHours <= D+5%.
	MaxLeD bool
	// Harmonic reports that every duration is at or under D+5% or within
	// 5% of an integer multiple of D (§4.4.2).
	Harmonic bool
}

// ClassifyPeriodic decides whether one probe is periodic from its
// duration list, returning the dominant periodic duration if so. When
// several quantised durations exceed the threshold (only possible near
// 0.25 each), the one with the largest fraction wins, ties to the longer
// duration (a skipped reset doubles apparent mass at 2d; preferring the
// longer of equals would be wrong, so prefer the shorter — the base
// period — on ties).
func ClassifyPeriodic(durations []AddressDuration) (PeriodicProbe, bool) {
	if len(durations) == 0 {
		return PeriodicProbe{}, false
	}
	hours := make([]float64, len(durations))
	for i, d := range durations {
		hours[i] = d.Hours()
	}
	return ClassifyPeriodicHours(durations[0].Probe, hours)
}

// ClassifyPeriodicHours is ClassifyPeriodic over raw duration lengths in
// hours, a Machine's RawHours. The list must include every bounded
// duration, non-positive ones included (they count toward the
// minimum-durations gate exactly as they do in a duration list, while
// TTFFromHours skips them).
func ClassifyPeriodicHours(probe atlasdata.ProbeID, hours []float64) (PeriodicProbe, bool) {
	if len(hours) < minDurationsForPeriodic {
		return PeriodicProbe{}, false
	}
	ttf := TTFFromHours(hours)
	var best stats.Point
	found := false
	for _, p := range ttf.Modes(periodicThreshold) {
		if p.X > maxPeriodicHours {
			continue
		}
		if !found || p.Y > best.Y || (p.Y == best.Y && p.X < best.X) {
			best = p
			found = true
		}
	}
	if !found {
		return PeriodicProbe{}, false
	}
	pp := PeriodicProbe{
		Probe:    probe,
		D:        best.X,
		Frac:     best.Y,
		Harmonic: true,
	}
	limit := best.X * maxSlack
	for _, h := range hours {
		if h > pp.MaxHours {
			pp.MaxHours = h
		}
		if h <= limit {
			continue
		}
		// Longer than the period: harmonic only if near a multiple of D.
		k := float64(int(h/best.X + 0.5))
		if k < 2 || h < (k-0.05)*best.X || h > (k+0.05)*best.X {
			pp.Harmonic = false
		}
	}
	pp.MaxLeD = pp.MaxHours <= limit
	return pp, true
}

// ASPeriodicRow is one row of the paper's Table 5: an autonomous system
// and a periodic duration, with the population statistics of the probes
// periodic at that duration.
type ASPeriodicRow struct {
	ASN uint32
	// D is the periodic duration in hours.
	D float64
	// N is the AS's number of probes with at least one address change.
	N int
	// NPeriodic is the number of probes with f_D > 0.25 at this D.
	NPeriodic int
	// FracOver50 and FracOver75 are the shares of NPeriodic with f_D
	// above 0.5 and 0.75.
	FracOver50 float64
	FracOver75 float64
	// FracMaxLeD is the share of NPeriodic whose maximum duration stayed
	// within D+5%.
	FracMaxLeD float64
	// FracHarmonic is the share of NPeriodic all of whose durations are
	// within D+5% or near a multiple of D.
	FracHarmonic float64
}

// Table5MinProbes and Table5MinPeriodic are the paper's row inclusion
// bounds: ASes with at least five changed probes of which at least three
// are periodic at the row's duration.
const (
	Table5MinProbes   = 5
	Table5MinPeriodic = 3
)

// PeriodicRowsOver aggregates a per-probe classification into Table 5
// rows over AS groups — the seam shared by Run (groups from ByAS) and
// the streaming fold (groups built from per-probe event state). A row
// needs Table5MinProbes probes in the AS and Table5MinPeriodic of them
// periodic at the row's duration. Rows are sorted by NPeriodic
// descending, then ASN, then D — the paper's presentation order.
func PeriodicRowsOver(groups map[uint32][]atlasdata.ProbeID, perProbe map[atlasdata.ProbeID]PeriodicProbe) []ASPeriodicRow {
	var rows []ASPeriodicRow
	for asn, ids := range groups {
		if len(ids) < Table5MinProbes {
			continue
		}
		byD := make(map[float64][]PeriodicProbe)
		for _, id := range ids {
			if pp, ok := perProbe[id]; ok {
				byD[pp.D] = append(byD[pp.D], pp)
			}
		}
		for d, pps := range byD {
			if len(pps) < Table5MinPeriodic {
				continue
			}
			row := ASPeriodicRow{ASN: asn, D: d, N: len(ids), NPeriodic: len(pps)}
			var over50, over75, maxLe, harmonic int
			for _, pp := range pps {
				if pp.Frac > 0.5 {
					over50++
				}
				if pp.Frac > 0.75 {
					over75++
				}
				if pp.MaxLeD {
					maxLe++
				}
				if pp.Harmonic {
					harmonic++
				}
			}
			n := float64(len(pps))
			row.FracOver50 = float64(over50) / n
			row.FracOver75 = float64(over75) / n
			row.FracMaxLeD = float64(maxLe) / n
			row.FracHarmonic = float64(harmonic) / n
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NPeriodic != rows[j].NPeriodic {
			return rows[i].NPeriodic > rows[j].NPeriodic
		}
		if rows[i].ASN != rows[j].ASN {
			return rows[i].ASN < rows[j].ASN
		}
		return rows[i].D < rows[j].D
	})
	return rows
}

// PeriodicAllOver computes the Table 5 "All" summary row for one
// duration d (hours) over a probe list: the AS-analyzable probes in Run,
// the single-AS probes of per-probe event state in the streaming fold.
func PeriodicAllOver(ids []atlasdata.ProbeID, perProbe map[atlasdata.ProbeID]PeriodicProbe, d float64) ASPeriodicRow {
	row := ASPeriodicRow{D: d, N: len(ids)}
	var over50, over75, maxLe, harmonic int
	for _, id := range ids {
		pp, ok := perProbe[id]
		if !ok || pp.D != d {
			continue
		}
		row.NPeriodic++
		if pp.Frac > 0.5 {
			over50++
		}
		if pp.Frac > 0.75 {
			over75++
		}
		if pp.MaxLeD {
			maxLe++
		}
		if pp.Harmonic {
			harmonic++
		}
	}
	if row.NPeriodic > 0 {
		n := float64(row.NPeriodic)
		row.FracOver50 = float64(over50) / n
		row.FracOver75 = float64(over75) / n
		row.FracMaxLeD = float64(maxLe) / n
		row.FracHarmonic = float64(harmonic) / n
	}
	return row
}

// HourHistogram counts, per GMT hour of day, the endings of address
// durations whose quantised length equals d hours, across the given
// probes — Figures 4 and 5. The change instant is taken as the end of
// the last connection using the address, the moment the session was
// torn down.
func HourHistogram(res *FilterResult, ids []atlasdata.ProbeID, d float64) [24]int {
	var hist [24]int
	for _, id := range ids {
		view, ok := res.Views[id]
		if !ok {
			continue
		}
		for _, dur := range view.Durations() {
			if QuantizeHours(dur.Hours()) == d {
				hist[dur.End.HourOfDay()]++
			}
		}
	}
	return hist
}
