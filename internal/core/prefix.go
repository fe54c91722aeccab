package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
)

// PrefixChangeRow is one row of the paper's Table 7: for a set of
// address changes, how many crossed a BGP prefix, a /16, and a /8
// boundary.
type PrefixChangeRow struct {
	ASN uint32 // 0 for the all-probes summary row

	Changes  int // total address changes considered
	DiffBGP  int
	DiffS16  int
	DiffS8   int
	Unrouted int // changes whose endpoints had no pfx2as mapping
}

// Fractions of total changes; zero when no changes.
func frac(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// FracBGP returns the share of changes that crossed BGP prefixes.
func (r PrefixChangeRow) FracBGP() float64 { return frac(r.DiffBGP, r.Changes) }

// FracS16 returns the share of changes that crossed /16s.
func (r PrefixChangeRow) FracS16() float64 { return frac(r.DiffS16, r.Changes) }

// FracS8 returns the share of changes that crossed /8s.
func (r PrefixChangeRow) FracS8() float64 { return frac(r.DiffS8, r.Changes) }

// ProbePrefixChanges computes one probe's Table 7 counters. The BGP
// prefix of each endpoint comes from the month-matched pfx2as snapshot,
// the paper's §6 procedure. Counters are integers, so summing per-probe
// rows in any order gives the same totals.
func ProbePrefixChanges(ds *atlasdata.Dataset, view *ProbeView) PrefixChangeRow {
	var row PrefixChangeRow
	for _, ch := range view.Changes {
		_, fromPfx, okFrom := ds.Pfx2AS.Lookup(ch.From, ch.PrevEnd)
		_, toPfx, okTo := ds.Pfx2AS.Lookup(ch.To, ch.NextStart)
		row.Changes++
		if !okFrom || !okTo {
			row.Unrouted++
			continue
		}
		if fromPfx != toPfx {
			row.DiffBGP++
		}
		if ch.From.Slash16() != ch.To.Slash16() {
			row.DiffS16++
		}
		if ch.From.Slash8() != ch.To.Slash8() {
			row.DiffS8++
		}
	}
	return row
}

// Accumulate folds another row's counters into r (the ASN is kept).
func (r *PrefixChangeRow) Accumulate(o PrefixChangeRow) {
	r.Changes += o.Changes
	r.DiffBGP += o.DiffBGP
	r.DiffS16 += o.DiffS16
	r.DiffS8 += o.DiffS8
	r.Unrouted += o.Unrouted
}

// PrefixAllOver computes the Table 7 summary row over a probe list:
// the AS-analyzable probes in Run, the single-AS probes of per-probe
// event state in the streaming fold.
func PrefixAllOver(ids []atlasdata.ProbeID, perProbe map[atlasdata.ProbeID]PrefixChangeRow) PrefixChangeRow {
	var row PrefixChangeRow
	for _, id := range ids {
		row.Accumulate(perProbe[id])
	}
	return row
}

// PrefixRowsOver aggregates per-probe rows into per-AS Table 7 rows
// over AS groups — the seam shared by Run and the streaming fold. Only
// ASes with at least one change get a row; rows are sorted by change
// count descending, then ASN.
func PrefixRowsOver(groups map[uint32][]atlasdata.ProbeID, perProbe map[atlasdata.ProbeID]PrefixChangeRow) []PrefixChangeRow {
	var rows []PrefixChangeRow
	for asn, ids := range groups {
		row := PrefixChangeRow{ASN: asn}
		for _, id := range ids {
			row.Accumulate(perProbe[id])
		}
		if row.Changes > 0 {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Changes != rows[j].Changes {
			return rows[i].Changes > rows[j].Changes
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}
