package core

import (
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

func TestAssociateGapsPriority(t *testing.T) {
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 1000, "10.0.0.1"),
		v4e(1, 2000, 3000, "10.0.0.2"), // gap 1000-2000: network outage
		v4e(1, 5000, 6000, "10.0.0.2"), // gap 3000-5000: power outage
		v4e(1, 7000, 8000, "10.0.0.3"), // gap 6000-7000: nothing
	}
	networks := []NetworkOutage{{Probe: 1, Start: 1200, End: 1700}}
	powers := []PowerOutage{{Probe: 1, RebootAt: 4000, GapStart: 3100, GapEnd: 4900}}
	gaps := associateGaps(entries, networks, powers)
	if len(gaps) != 3 {
		t.Fatalf("gaps = %d, want 3", len(gaps))
	}
	if gaps[0].Cause != NetworkCause || !gaps[0].Changed {
		t.Errorf("gap 0 = %+v, want changed network", gaps[0])
	}
	if gaps[0].OutageDuration != 500 {
		t.Errorf("gap 0 outage duration = %v", gaps[0].OutageDuration)
	}
	if gaps[1].Cause != PowerCause || gaps[1].Changed {
		t.Errorf("gap 1 = %+v, want unchanged power", gaps[1])
	}
	if gaps[1].OutageDuration != 1800 {
		t.Errorf("gap 1 outage duration = %v", gaps[1].OutageDuration)
	}
	if gaps[2].Cause != NoOutage || !gaps[2].Changed {
		t.Errorf("gap 2 = %+v, want changed no-outage", gaps[2])
	}
}

func TestAssociateGapsNetworkBeatsPower(t *testing.T) {
	// Both a network outage and a reboot in the same gap: the paper's
	// priority picks network.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 1000, "10.0.0.1"),
		v4e(1, 5000, 6000, "10.0.0.2"),
	}
	networks := []NetworkOutage{{Probe: 1, Start: 1500, End: 2000}}
	powers := []PowerOutage{{Probe: 1, RebootAt: 3000, GapStart: 2500, GapEnd: 4500}}
	gaps := associateGaps(entries, networks, powers)
	if len(gaps) != 1 || gaps[0].Cause != NetworkCause {
		t.Errorf("gaps = %+v, want network priority", gaps)
	}
}

func TestAssociateGapsOutsideGapIgnored(t *testing.T) {
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 1000, "10.0.0.1"),
		v4e(1, 2000, 30000, "10.0.0.2"),
		v4e(1, 31000, 40000, "10.0.0.3"),
	}
	// Outage within the second connection, not a gap (detected e.g. from
	// partial loss), must not classify either gap.
	networks := []NetworkOutage{{Probe: 1, Start: 10000, End: 12000}}
	gaps := associateGaps(entries, networks, nil)
	for i, g := range gaps {
		if g.Cause != NoOutage {
			t.Errorf("gap %d cause = %v, want no-outage", i, g.Cause)
		}
	}
}

func TestCauseString(t *testing.T) {
	if NoOutage.String() != "no-outage" || NetworkCause.String() != "network" || PowerCause.String() != "power" {
		t.Error("Cause.String wrong")
	}
}

func TestProbeOutageStatsPac(t *testing.T) {
	st := ProbeOutageStats{NetworkGaps: 4, NetworkChanged: 3, PowerGaps: 2, PowerChanged: 2}
	if p, ok := st.PacNetwork(); !ok || p != 0.75 {
		t.Errorf("PacNetwork = %v %v", p, ok)
	}
	if p, ok := st.PacPower(); !ok || p != 1 {
		t.Errorf("PacPower = %v %v", p, ok)
	}
	empty := ProbeOutageStats{}
	if _, ok := empty.PacNetwork(); ok {
		t.Error("no network gaps should yield no probability")
	}
}

func TestDurationBinEdges(t *testing.T) {
	if len(OutageDurationBins)+1 != len(OutageDurationBinLabels) {
		t.Fatal("bin labels out of sync with edges")
	}
	for i := 1; i < len(OutageDurationBins); i++ {
		if OutageDurationBins[i] <= OutageDurationBins[i-1] {
			t.Fatal("bin edges not ascending")
		}
	}
}

func TestDurationBinRowPct(t *testing.T) {
	r := DurationBinRow{Total: 4, Renumbered: 3}
	if r.Pct() != 0.75 {
		t.Errorf("Pct = %v", r.Pct())
	}
	if (DurationBinRow{}).Pct() != 0 {
		t.Error("empty bin Pct should be 0")
	}
}

// End-to-end mini-world for the outage pipeline: one probe whose gaps we
// fully control.
func TestAnalyzeOutagesEndToEnd(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	t0 := simclock.StudyStart

	// Connection log: 4 long sessions with 3 gaps.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, t0, t0.Add(100*day), "10.0.0.1"),
		// Gap A at day 100: network outage, address changes.
		v4e(1, t0.Add(100*day+2*simclock.Hour), t0.Add(200*day), "10.0.0.2"),
		// Gap B at day 200: power outage (reboot + silence), no change.
		v4e(1, t0.Add(200*day+2*simclock.Hour), t0.Add(300*day), "10.0.0.2"),
		// Gap C at day 300: nothing, address changes.
		v4e(1, t0.Add(300*day+30*simclock.Minute), t0.Add(360*day), "10.0.0.3"),
	}
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 350}
	fileLog(ds, 1, entries)

	// k-root: good rounds bracketing everything, loss run in gap A with
	// growing LTS, silence in gap B.
	gapA := t0.Add(100 * day)
	gapB := t0.Add(200 * day)
	ds.KRoot[1] = stored(
		round(t0.Add(day), 3, 60),
		round(gapA.Add(-2*simclock.Minute), 3, 60),
		round(gapA.Add(4*simclock.Minute), 0, 400),
		round(gapA.Add(30*simclock.Minute), 0, 2000),
		round(gapA.Add(2*simclock.Hour+5*simclock.Minute), 3, 60),
		round(gapB.Add(-3*simclock.Minute), 3, 60),
		round(gapB.Add(2*simclock.Hour+4*simclock.Minute), 3, 60),
		round(t0.Add(350*day), 3, 60),
	)
	// Uptime: a reset at gap B (boot just before the post-gap record).
	bootAt := gapB.Add(2 * simclock.Hour)
	ds.Uptime[1] = storedUptime([]atlasdata.UptimeRecord{
		{Probe: 1, Timestamp: t0, Uptime: 500000},
		{Probe: 1, Timestamp: gapA.Add(2 * simclock.Hour), Uptime: int64(gapA.Add(2*simclock.Hour).Sub(t0)) + 500000},
		{Probe: 1, Timestamp: bootAt.Add(2 * simclock.Minute), Uptime: 120},
		{Probe: 1, Timestamp: t0.Add(300*day + 30*simclock.Minute), Uptime: int64(t0.Add(300*day + 30*simclock.Minute).Sub(bootAt))},
	})

	res := Filter(ds)
	if _, ok := res.Views[1]; !ok {
		t.Fatal("probe should be analyzable")
	}
	oa := AnalyzeOutages(ds, res)
	st := oa.Stats[1]
	if st.NetworkGaps != 1 || st.NetworkChanged != 1 {
		t.Errorf("network stats = %+v", st)
	}
	if st.PowerGaps != 1 || st.PowerChanged != 0 {
		t.Errorf("power stats = %+v", st)
	}
	if st.NoOutageGaps != 1 || st.NoOutageChange != 1 {
		t.Errorf("no-outage stats = %+v", st)
	}
}

func TestAnalyzeOutagesV12PowerExcluded(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	t0 := simclock.StudyStart
	entries := []atlasdata.ConnLogEntry{
		v4e(1, t0, t0.Add(100*day), "10.0.0.1"),
		v4e(1, t0.Add(100*day+2*simclock.Hour), t0.Add(300*day), "10.0.0.2"),
	}
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V1, ConnectedDays: 290}
	fileLog(ds, 1, entries)
	gap := t0.Add(100 * day)
	ds.KRoot[1] = stored(
		round(gap.Add(-2*simclock.Minute), 3, 60),
		round(gap.Add(2*simclock.Hour+4*simclock.Minute), 3, 60),
	)
	bootAt := gap.Add(2 * simclock.Hour)
	ds.Uptime[1] = storedUptime([]atlasdata.UptimeRecord{
		{Probe: 1, Timestamp: t0, Uptime: 500000},
		{Probe: 1, Timestamp: bootAt.Add(time2(90)), Uptime: 90},
	})
	res := Filter(ds)
	oa := AnalyzeOutages(ds, res)
	st := oa.Stats[1]
	if st.PowerGaps != 0 {
		t.Errorf("v1 probe power gaps = %d, want 0 (excluded)", st.PowerGaps)
	}
}

func time2(s int64) simclock.Duration { return simclock.Duration(s) }
