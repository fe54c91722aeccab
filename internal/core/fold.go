package core

import "dynaddr/internal/atlasdata"

// DefaultTopASes is how many ASes Figures 2, 7 and 8 show when the
// caller sets no positive count: the paper's figure width.
const DefaultTopASes = 5

// topASesOrDefault applies DefaultTopASes to a count of zero or less.
func topASesOrDefault(n int) int {
	if n <= 0 {
		return DefaultTopASes
	}
	return n
}

// Fold is the cross-probe pass of the paper's §4-§6 analyses over the
// analyzable probes' frozen events: Table 5, the §5 outage pipeline
// with Table 6 and Figures 6-8, and Table 7.
type Fold struct {
	// ASProbes are the single-AS probes (the paper's AS-level set) and
	// Groups those with a routed home AS by that AS, each list in
	// ascending probe-ID order, as ByAS forms them from a FilterResult.
	ASProbes []atlasdata.ProbeID
	Groups   map[uint32][]atlasdata.ProbeID
	// Outage holds Figure 6's series, the firmware days and every
	// probe's outage statistics; its Gaps only when the fold keeps them.
	Outage *OutageAnalysis
	// Periodic maps each periodic probe to its classification.
	Periodic map[atlasdata.ProbeID]PeriodicProbe

	Table5, Table5All []ASPeriodicRow
	Table6            []ASOutageRow
	Table7All         PrefixChangeRow
	Table7ByAS        []PrefixChangeRow
	Figure7, Figure8  []PacECDF
}

// FoldEvents runs the fold. events must be sorted by probe ID
// ascending, so group lists come out in probe-ID order; they are read
// in place. topASes bounds Figures 7 and 8 (zero or less means
// DefaultTopASes). With keepGaps every probe's classified gaps are kept
// in Outage.Gaps, which Figure 9 and the link-type inference read.
//
// The firmware profile is global by nature (a push shows up as a
// population-wide reboot spike), so it is found from every probe's
// reboots before any probe's power outages are qualified. Run, the live
// fold (liveanalysis.Compute) and AnalyzeOutages all call this.
func FoldEvents(events []ProbeEvents, topASes int, keepGaps bool) *Fold {
	f := &Fold{
		Groups:   make(map[uint32][]atlasdata.ProbeID),
		Periodic: make(map[atlasdata.ProbeID]PeriodicProbe),
	}
	reboots := make(map[atlasdata.ProbeID][]Reboot, len(events))
	for i := range events {
		ev := &events[i]
		reboots[ev.Probe] = ev.Reboots
		if ev.MultiAS {
			continue
		}
		f.ASProbes = append(f.ASProbes, ev.Probe)
		if ev.ASN != 0 {
			f.Groups[ev.ASN] = append(f.Groups[ev.ASN], ev.Probe)
		}
	}
	oa := &OutageAnalysis{Stats: make(map[atlasdata.ProbeID]ProbeOutageStats, len(events))}
	oa.RebootsPerDay = RebootsPerDay(reboots)
	oa.FirmwareDays = DetectFirmwareDays(oa.RebootsPerDay)
	if keepGaps {
		oa.Gaps = make(map[atlasdata.ProbeID][]Gap, len(events))
	}
	f.Outage = oa

	prefix := make(map[atlasdata.ProbeID]PrefixChangeRow, len(events))
	changed := make(map[atlasdata.ProbeID]bool, len(events))
	for i := range events {
		ev := &events[i]
		gaps, st := ev.Outages(oa.FirmwareDays, keepGaps)
		oa.Stats[ev.Probe] = st
		if keepGaps {
			oa.Gaps[ev.Probe] = gaps
		}
		if pp, ok := ClassifyPeriodicHours(ev.Probe, ev.RawHours); ok {
			f.Periodic[ev.Probe] = pp
		}
		prefix[ev.Probe] = ev.Prefix
		changed[ev.Probe] = ev.HasChanges
	}

	f.Table5 = PeriodicRowsOver(f.Groups, f.Periodic)
	f.Table5All = []ASPeriodicRow{
		PeriodicAllOver(f.ASProbes, f.Periodic, 24),
		PeriodicAllOver(f.ASProbes, f.Periodic, 168),
	}
	hasChanges := func(id atlasdata.ProbeID) bool { return changed[id] }
	f.Figure7, f.Figure8 = BuildPacFiguresFrom(oa.Stats, hasChanges, f.Groups, topASesOrDefault(topASes))
	f.Table6 = OutagesRows(oa.Stats, f.Groups)
	f.Table7All = PrefixAllOver(f.ASProbes, prefix)
	f.Table7ByAS = PrefixRowsOver(f.Groups, prefix)
	return f
}
