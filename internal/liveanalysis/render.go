package liveanalysis

import (
	"dynaddr/internal/core"
	"dynaddr/internal/tables"
)

// The render methods reuse the batch Report's row formatters, so a live
// Result and a batch Report over the same records print byte-identical
// tables — the property churnctl's -live-analysis mode relies on.

// RenderTable5 formats the periodic-AS table.
func (r *Result) RenderTable5(names core.NameFunc) *tables.Table {
	return core.RenderTable5Rows(r.Table5All, r.Table5, names)
}

// RenderTable6 formats the outage-renumbering table.
func (r *Result) RenderTable6(names core.NameFunc) *tables.Table {
	return core.RenderTable6Rows(r.Table6, names)
}

// RenderTable7 formats the prefix-change table.
func (r *Result) RenderTable7(names core.NameFunc) *tables.Table {
	return core.RenderTable7Rows(r.Table7All, r.Table7ByAS, names)
}

// RenderFigure6 summarises the reboot-per-day series and firmware days.
func (r *Result) RenderFigure6() *tables.Table {
	return core.RenderFigure6Rows(r.RebootsPerDay, r.FirmwareDays)
}

// RenderFigure7 formats the P(ac|nw) ECDFs.
func (r *Result) RenderFigure7(names core.NameFunc) *tables.Table {
	return core.RenderFigure7Rows(r.Figure7, names)
}

// RenderFigure8 formats the P(ac|pw) ECDFs.
func (r *Result) RenderFigure8(names core.NameFunc) *tables.Table {
	return core.RenderFigure8Rows(r.Figure8, names)
}

// RenderChurn formats the day-windowed change-traffic series — the one
// live-only artefact, with no batch table to match.
func (r *Result) RenderChurn() *tables.Table {
	t := tables.New("Live analysis: address-change churn by study day",
		"Day", "Changes", "DiffBGP", "%", "Diff/16", "%", "Diff/8", "%", "Unrouted")
	for _, w := range r.Churn {
		day := tables.I(w.Day)
		if w.Day < 0 {
			day = "outside"
		}
		t.AddRow(day, tables.I(w.Row.Changes),
			tables.I(w.Row.DiffBGP), tables.Pct(w.Row.FracBGP()),
			tables.I(w.Row.DiffS16), tables.Pct(w.Row.FracS16()),
			tables.I(w.Row.DiffS8), tables.Pct(w.Row.FracS8()),
			tables.I(w.Row.Unrouted))
	}
	return t
}
