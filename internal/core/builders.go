package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/geo"
	"dynaddr/internal/stats"
)

// This file holds the Build* seams: each computes one Report artefact
// from explicit inputs.

// BuildTable2 counts probes per filtering category, in Table 2 order.
func BuildTable2(res *FilterResult) map[Category]int {
	t := make(map[Category]int)
	for _, c := range Categories {
		t[c] = res.Count(c)
	}
	return t
}

// BuildFigure1 aggregates per-probe TTF distributions by continent, in
// the paper's legend order.
func BuildFigure1(res *FilterResult, ttfs map[atlasdata.ProbeID]*stats.Weighted) []ASCDF {
	byCont := ByContinent(res)
	var out []ASCDF
	for _, cont := range geo.Continents {
		ids := byCont[cont]
		if len(ids) == 0 {
			continue
		}
		g := GroupTTF(ttfs, ids)
		out = append(out, ASCDF{
			Label:      string(cont),
			Probes:     len(ids),
			TotalYears: g.Total() / (24 * 365),
			CDF:        g.CDF(),
		})
	}
	return out
}

// BuildFigure2 selects the topASes ASes by probes yielding at least one
// bounded duration and plots their aggregate TTF CDFs.
func BuildFigure2(res *FilterResult, ttfs map[atlasdata.ProbeID]*stats.Weighted, byAS map[uint32][]atlasdata.ProbeID, topASes int) []ASCDF {
	type asSize struct {
		asn      uint32
		yielding int
	}
	var sizes []asSize
	for asn, ids := range byAS {
		y := 0
		for _, id := range ids {
			if ttfs[id].Len() > 0 {
				y++
			}
		}
		if y > 0 {
			sizes = append(sizes, asSize{asn, y})
		}
	}
	sort.Slice(sizes, func(i, j int) bool {
		if sizes[i].yielding != sizes[j].yielding {
			return sizes[i].yielding > sizes[j].yielding
		}
		return sizes[i].asn < sizes[j].asn
	})
	var out []ASCDF
	for i := 0; i < len(sizes) && i < topASes; i++ {
		asn := sizes[i].asn
		g := GroupTTF(ttfs, byAS[asn])
		out = append(out, ASCDF{
			ASN:        asn,
			Probes:     sizes[i].yielding,
			TotalYears: g.Total() / (24 * 365),
			CDF:        g.CDF(),
		})
	}
	return out
}

// BuildFigure3 plots TTF CDFs for the ASes of one country whose total
// address time reaches minYears.
func BuildFigure3(res *FilterResult, ttfs map[atlasdata.ProbeID]*stats.Weighted, byAS map[uint32][]atlasdata.ProbeID, country string, minYears float64) []ASCDF {
	countryAS := make(map[uint32][]atlasdata.ProbeID)
	for asn, ids := range byAS {
		var in []atlasdata.ProbeID
		for _, id := range ids {
			if res.Views[id].Meta.Country == country {
				in = append(in, id)
			}
		}
		if len(in) > 0 {
			countryAS[asn] = in
		}
	}
	var f3ASNs []uint32
	for asn, ids := range countryAS {
		g := GroupTTF(ttfs, ids)
		if g.Total()/(24*365) >= minYears {
			f3ASNs = append(f3ASNs, asn)
		}
	}
	sort.Slice(f3ASNs, func(i, j int) bool { return f3ASNs[i] < f3ASNs[j] })
	var out []ASCDF
	for _, asn := range f3ASNs {
		g := GroupTTF(ttfs, countryAS[asn])
		out = append(out, ASCDF{
			ASN:        asn,
			Probes:     len(countryAS[asn]),
			TotalYears: g.Total() / (24 * 365),
			CDF:        g.CDF(),
		})
	}
	return out
}

// BuildHourHists builds Figures 4/5: hour-of-day histograms for the two
// Table 5 rows with the most periodic probes.
func BuildHourHists(res *FilterResult, byAS map[uint32][]atlasdata.ProbeID, table5 []ASPeriodicRow) []HourHist {
	var out []HourHist
	for i := 0; i < len(table5) && i < 2; i++ {
		row := table5[i]
		out = append(out, HourHist{
			ASN:   row.ASN,
			D:     row.D,
			Hours: HourHistogram(res, byAS[row.ASN], row.D),
		})
	}
	return out
}

// BuildPacFiguresFrom builds Figures 7 and 8: P(ac|nw) and P(ac|pw)
// ECDFs for the topASes ASes by probes that changed address and have at
// least MinOutagesForPac network outages, from a stats map, a
// changed-probe predicate and AS groups. ASes are ordered by that probe
// count descending, then ASN.
func BuildPacFiguresFrom(all map[atlasdata.ProbeID]ProbeOutageStats, hasChanges func(atlasdata.ProbeID) bool, byAS map[uint32][]atlasdata.ProbeID, topASes int) (fig7, fig8 []PacECDF) {
	type pacSize struct {
		asn uint32
		n   int
	}
	var pacSizes []pacSize
	for asn, ids := range byAS {
		n := 0
		for _, id := range ids {
			st := all[id]
			if hasChanges(id) && st.NetworkGaps >= MinOutagesForPac {
				n++
			}
		}
		if n > 0 {
			pacSizes = append(pacSizes, pacSize{asn, n})
		}
	}
	sort.Slice(pacSizes, func(i, j int) bool {
		if pacSizes[i].n != pacSizes[j].n {
			return pacSizes[i].n > pacSizes[j].n
		}
		return pacSizes[i].asn < pacSizes[j].asn
	})
	for i := 0; i < len(pacSizes) && i < topASes; i++ {
		asn := pacSizes[i].asn
		nw := PacSampleOver(all, byAS[asn], false)
		pw := PacSampleOver(all, byAS[asn], true)
		fig7 = append(fig7, PacECDF{ASN: asn, Probes: nw.Len(), Points: nw.ECDF()})
		fig8 = append(fig8, PacECDF{ASN: asn, Probes: pw.Len(), Points: pw.ECDF()})
	}
	return fig7, fig8
}

// BuildFigure9 picks the contrast ASes (pinned, the paper's LGI/Orange
// pair when present, else the Table 6 extremes) and bins their outages
// by duration.
func BuildFigure9(oa *OutageAnalysis, res *FilterResult, byAS map[uint32][]atlasdata.ProbeID, table6 []ASOutageRow, pinned []uint32) []Figure9AS {
	f9 := pinned
	if len(f9) == 0 {
		if _, okL := byAS[6830]; okL {
			if _, okO := byAS[3215]; okO {
				f9 = []uint32{6830, 3215}
			}
		}
	}
	if len(f9) == 0 && len(table6) > 0 {
		hi, lo := table6[0], table6[0]
		for _, r := range table6 {
			if r.NwOver80 > hi.NwOver80 {
				hi = r
			}
			if r.NwOver80 < lo.NwOver80 {
				lo = r
			}
		}
		f9 = []uint32{lo.ASN, hi.ASN}
	}
	var out []Figure9AS
	for _, asn := range f9 {
		if ids, ok := byAS[asn]; ok {
			out = append(out, Figure9AS{
				ASN:  asn,
				Bins: oa.DurationBins(res, ids),
			})
		}
	}
	return out
}
