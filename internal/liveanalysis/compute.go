package liveanalysis

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
)

// Options parameterises the query-time fold.
type Options struct {
	// TopASes bounds Figures 7/8 to the N ASes with the most qualifying
	// probes. Zero means 5, the paper's figure width.
	TopASes int
}

func (o Options) withDefaults() Options {
	if o.TopASes <= 0 {
		o.TopASes = 5
	}
	return o
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

// Compute runs the query-time fold: firmware-push detection over the
// population, then per-probe power-outage qualification and gap
// classification, then the AS aggregations — the batch pipeline's §4-§6
// stages over event state instead of raw records. events must be sorted
// by probe ID ascending (the order both the shard merge and FromBatch
// produce), so group membership lists match the batch ordering exactly.
func Compute(events []core.ProbeEvents, churn map[int]core.PrefixChangeRow, opts Options) *Result {
	opts = opts.withDefaults()
	r := &Result{Probes: len(events)}

	// AS groups over the single-AS probes, as core.ByAS forms them.
	groups := make(map[uint32][]atlasdata.ProbeID)
	var asProbes []atlasdata.ProbeID
	for _, ev := range events {
		if ev.MultiAS {
			continue
		}
		asProbes = append(asProbes, ev.Probe)
		if ev.ASN != 0 {
			groups[ev.ASN] = append(groups[ev.ASN], ev.Probe)
		}
	}
	r.ASProbes = len(asProbes)

	// Pass 1 (global): the firmware profile needs every probe's reboots
	// before any per-probe power qualification can run.
	rebootsByProbe := make(map[atlasdata.ProbeID][]core.Reboot, len(events))
	for _, ev := range events {
		rebootsByProbe[ev.Probe] = ev.Reboots
	}
	r.RebootsPerDay = core.RebootsPerDay(rebootsByProbe)
	r.FirmwareDays = core.DetectFirmwareDays(r.RebootsPerDay)

	// Pass 2 (per probe): the outage pipeline's per-probe pass (the
	// tallies only), periodic classification.
	stats := make(map[atlasdata.ProbeID]core.ProbeOutageStats, len(events))
	perProbe := make(map[atlasdata.ProbeID]core.PeriodicProbe)
	prefixRows := make(map[atlasdata.ProbeID]core.PrefixChangeRow, len(events))
	changed := make(map[atlasdata.ProbeID]bool, len(events))
	for i := range events {
		ev := &events[i]
		_, stats[ev.Probe] = ev.Outages(r.FirmwareDays, false)
		if pp, ok := core.ClassifyPeriodicHours(ev.Probe, ev.RawHours); ok {
			perProbe[ev.Probe] = pp
		}
		prefixRows[ev.Probe] = ev.Prefix
		changed[ev.Probe] = ev.HasChanges
	}

	// AS aggregation, through the same seams the batch Report uses.
	r.Table5 = core.PeriodicRowsOver(groups, perProbe)
	r.Table5All = []core.ASPeriodicRow{
		core.PeriodicAllOver(asProbes, perProbe, 24),
		core.PeriodicAllOver(asProbes, perProbe, 168),
	}
	hasChanges := func(id atlasdata.ProbeID) bool { return changed[id] }
	r.Figure7, r.Figure8 = core.BuildPacFiguresFrom(stats, hasChanges, groups, opts.TopASes)
	r.Table6 = core.OutagesRows(stats, groups)
	r.Table7All = core.PrefixAllOver(asProbes, prefixRows)
	r.Table7ByAS = core.PrefixRowsOver(groups, prefixRows)

	for day, row := range churn {
		r.Churn = append(r.Churn, ChurnWindow{Day: day, Row: row})
	}
	sort.Slice(r.Churn, func(i, j int) bool { return r.Churn[i].Day < r.Churn[j].Day })
	return r
}
