package liveanalysis

import (
	"sort"

	"dynaddr/internal/core"
)

// Options parameterises the query-time fold.
type Options struct {
	// TopASes bounds Figures 7/8 to the N ASes with the most qualifying
	// probes. Zero or less means 5, the paper's figure width.
	TopASes int
}

// Result is the live analysis answer: the paper's AS-level tables and
// outage figures plus the windowed churn series, computed from event
// state at a snapshot barrier. Every field is a plain value or slice in
// deterministic order, so two Results are equal exactly when their JSON
// encodings are byte-equal — the form the replay-equivalence tests
// compare.
type Result struct {
	// Probes counts the analyzable probes contributing events;
	// ASProbes the single-AS subset (the paper's two analysis sets).
	Probes   int `json:"probes"`
	ASProbes int `json:"as_probes"`

	// Table5 holds the per-AS periodic-renumbering rows, Table5All the
	// all-probes summary rows at 24h and 168h.
	Table5    []core.ASPeriodicRow `json:"table5"`
	Table5All []core.ASPeriodicRow `json:"table5_all"`

	// RebootsPerDay and FirmwareDays are Figure 6: unique rebooting
	// probes per study day and the detected firmware-push days.
	RebootsPerDay []int `json:"reboots_per_day"`
	FirmwareDays  []int `json:"firmware_days"`

	// Figure7 and Figure8 are the per-AS P(ac|nw) and P(ac|pw) ECDFs.
	Figure7 []core.PacECDF `json:"figure7"`
	Figure8 []core.PacECDF `json:"figure8"`

	// Table6 holds the outage-renumbering rows.
	Table6 []core.ASOutageRow `json:"table6"`

	// Table7All and Table7ByAS are the prefix-change summary and per-AS
	// rows.
	Table7All  core.PrefixChangeRow   `json:"table7_all"`
	Table7ByAS []core.PrefixChangeRow `json:"table7_by_as"`

	// Churn is the day-windowed change-traffic series over all probes,
	// ascending by day (day -1, when present, leads).
	Churn []ChurnWindow `json:"churn"`
}

// Compute runs the query-time fold: core.FoldEvents over the frozen
// events, the batch pipeline's §4-§6 passes over event state instead of
// raw records, plus the churn windows. events must be sorted by probe
// ID ascending (the order both the shard merge and FromBatch produce),
// so group membership lists match the batch ordering exactly.
func Compute(events []core.ProbeEvents, churn map[int]core.PrefixChangeRow, opts Options) *Result {
	f := core.FoldEvents(events, opts.TopASes, false)
	r := &Result{
		Probes:        len(events),
		ASProbes:      len(f.ASProbes),
		Table5:        f.Table5,
		Table5All:     f.Table5All,
		RebootsPerDay: f.Outage.RebootsPerDay,
		FirmwareDays:  f.Outage.FirmwareDays,
		Figure7:       f.Figure7,
		Figure8:       f.Figure8,
		Table6:        f.Table6,
		Table7All:     f.Table7All,
		Table7ByAS:    f.Table7ByAS,
	}
	for day, row := range churn {
		r.Churn = append(r.Churn, ChurnWindow{Day: day, Row: row})
	}
	sort.Slice(r.Churn, func(i, j int) bool { return r.Churn[i].Day < r.Churn[j].Day })
	return r
}
