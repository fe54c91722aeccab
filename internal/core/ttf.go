package core

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/geo"
	"dynaddr/internal/stats"
)

// The paper's total time fraction (§4.1): for a probe and an address
// duration d, f_d = d·n(d) / Σ(D) — the fraction of the probe's total
// addressed time spent in durations of length d. Durations are
// quantised to whole hours before aggregation, matching the paper's
// hour-granular modes (12h, 22h, 24h, 28h, 36h, 47h, 48h, 92h, 168h,
// 192h, 337h).

// QuantizeHours rounds a duration in hours to the nearest whole hour,
// with a floor of one hour so sub-hour durations still carry weight.
func QuantizeHours(hours float64) float64 {
	q := float64(int(hours + 0.5))
	if q < 1 {
		q = 1
	}
	return q
}

// TTF builds the total-time-fraction distribution for a set of address
// durations: each duration contributes its own raw length as weight at
// its quantised hour value.
func TTF(durations []AddressDuration) *stats.Weighted {
	hours := make([]float64, len(durations))
	for i, d := range durations {
		hours[i] = d.Hours()
	}
	return TTFFromHours(hours)
}

// TTFFromHours builds the total-time-fraction distribution from raw
// duration lengths in hours, such as a Machine's RawHours.
// Non-positive lengths are skipped, exactly as TTF skips them.
func TTFFromHours(hours []float64) *stats.Weighted {
	var w stats.Weighted
	for _, h := range hours {
		if h <= 0 {
			continue
		}
		w.Add(QuantizeHours(h), h)
	}
	return &w
}

// ProbeTTFs computes the per-probe TTF distribution for every analyzable
// probe, from durations bounded by changes on both sides.
func ProbeTTFs(res *FilterResult) map[atlasdata.ProbeID]*stats.Weighted {
	out := make(map[atlasdata.ProbeID]*stats.Weighted, len(res.Views))
	for id, view := range res.Views {
		out[id] = TTF(view.Durations())
	}
	return out
}

// GroupTTF merges the TTF distributions of a set of probes, producing
// the aggregate the paper plots per AS, country or continent. The
// result's Total() is the group's total address time in hours (the
// number the paper prints in figure legends, converted to years).
func GroupTTF(ttfs map[atlasdata.ProbeID]*stats.Weighted, ids []atlasdata.ProbeID) *stats.Weighted {
	var w stats.Weighted
	for _, id := range ids {
		if d, ok := ttfs[id]; ok {
			w.AddDist(d)
		}
	}
	return &w
}

// ByContinent groups geo-analyzable probes by the continent of their
// registered country (Figure 1's aggregation). Probes with unknown
// country codes are skipped, mirroring the paper's handling of
// incomplete metadata.
func ByContinent(res *FilterResult) map[geo.Continent][]atlasdata.ProbeID {
	out := make(map[geo.Continent][]atlasdata.ProbeID)
	for _, id := range res.GeoProbes {
		cont, err := geo.ContinentOf(res.Views[id].Meta.Country)
		if err != nil {
			continue
		}
		out[cont] = append(out[cont], id)
	}
	return out
}

// ByCountry groups geo-analyzable probes by country code.
func ByCountry(res *FilterResult) map[string][]atlasdata.ProbeID {
	out := make(map[string][]atlasdata.ProbeID)
	for _, id := range res.GeoProbes {
		c := res.Views[id].Meta.Country
		out[c] = append(out[c], id)
	}
	return out
}

// ByAS groups AS-analyzable probes by their home AS (Figures 2-3's
// aggregation).
func ByAS(res *FilterResult) map[uint32][]atlasdata.ProbeID {
	out := make(map[uint32][]atlasdata.ProbeID)
	for _, id := range res.ASProbes {
		asn := uint32(res.Views[id].ASN)
		if asn == 0 {
			continue
		}
		out[asn] = append(out[asn], id)
	}
	return out
}
