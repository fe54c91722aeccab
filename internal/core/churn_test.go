package core

import (
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/isp"
	"dynaddr/internal/simclock"
)

func TestDailyActiveSetsSpansSessions(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	// One connection spanning days 10..12 inclusive.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, simclock.StudyStart.Add(10*day+simclock.Hour), simclock.StudyStart.Add(12*day+simclock.Hour), "10.0.0.1"),
	}
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 100}
	fileLog(ds, 1, entries)
	// Point d-1 compares day d with the day before.
	points := DailyChurn(ds, []atlasdata.ProbeID{1})
	for d := 10; d <= 12; d++ {
		if points[d-1].Active != 1 {
			t.Errorf("day %d active set = %d, want 1", d, points[d-1].Active)
		}
	}
	if points[8].Active != 0 || points[12].Active != 0 {
		t.Error("activity bled outside the session days")
	}
}

// refDailyChurn is DailyChurn as it was before it rolled two day sets:
// every study day's active set built first, then compared.
func refDailyChurn(ds *atlasdata.Dataset, ids []atlasdata.ProbeID) []ChurnPoint {
	days := int(simclock.StudyEnd.Sub(simclock.StudyStart) / simclock.Day)
	sets := make([]map[ip4.Addr]bool, days)
	for i := range sets {
		sets[i] = make(map[ip4.Addr]bool)
	}
	for _, id := range ids {
		entries, _ := ds.ReadConnLogs(id)
		for _, e := range entries {
			if !e.IsV4() {
				continue
			}
			first := e.Start.DayWithinStudy()
			last := e.End.DayWithinStudy()
			if first < 0 && e.Start.Before(simclock.StudyStart) {
				first = 0
			}
			if last < 0 && e.End.After(simclock.StudyStart) {
				last = days - 1
			}
			for d := first; d <= last && d >= 0 && d < days; d++ {
				sets[d][e.Addr] = true
			}
		}
	}
	var out []ChurnPoint
	for d := 1; d < len(sets); d++ {
		prev, cur := sets[d-1], sets[d]
		p := ChurnPoint{Day: d, PrevActive: len(prev), Active: len(cur)}
		for a := range cur {
			if !prev[a] {
				p.Appeared++
			}
		}
		for a := range prev {
			if !cur[a] {
				p.Gone++
			}
		}
		out = append(out, p)
	}
	return out
}

// TestDailyChurnMatchesReference: the rolling day sets give every point
// the day-by-day sets gave, over a world and over logs that start
// before, end after and lie wholly outside the study year.
func TestDailyChurnMatchesReference(t *testing.T) {
	w := testDataset(t, 14, 0.1)
	ids := w.Dataset.ProbeIDs()
	if got, want := DailyChurn(w.Dataset, ids), refDailyChurn(w.Dataset, ids); !reflect.DeepEqual(got, want) {
		t.Errorf("world: DailyChurn differs from the reference")
	}
	ds := buildDS(t)
	at := func(days float64) simclock.Time {
		return simclock.StudyStart.Add(simclock.Duration(days * float64(simclock.Day)))
	}
	logs := [][]atlasdata.ConnLogEntry{
		{v4e(1, at(-20), at(-10), "10.0.0.1"), v4e(1, at(-5), at(3.5), "10.0.0.2"), v6e(1, at(4), at(9)), v4e(1, at(9), at(9.5), "10.0.0.2")},
		{v4e(2, at(-1), at(400), "10.0.0.3")},
		{v4e(3, at(100), at(364.5), "10.0.0.1"), v4e(3, at(364.9), at(366), "10.0.0.4"), v4e(3, at(370), at(380), "10.0.0.5")},
		{v4e(4, at(0), at(0), "10.0.0.6"), v4e(4, at(365), at(365.5), "10.0.0.7")},
	}
	for i, log := range logs {
		id := atlasdata.ProbeID(i + 1)
		ds.Probes[id] = atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 100}
		fileLog(ds, id, log)
	}
	ids = []atlasdata.ProbeID{1, 2, 3, 4, 3}
	if got, want := DailyChurn(ds, ids), refDailyChurn(ds, ids); !reflect.DeepEqual(got, want) {
		t.Errorf("edge logs: DailyChurn differs from the reference")
	}
}

func TestDailyChurnStaticAddress(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	entries := []atlasdata.ConnLogEntry{
		v4e(1, simclock.StudyStart, simclock.StudyStart.Add(100*day), "10.0.0.1"),
	}
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 100}
	fileLog(ds, 1, entries)
	points := DailyChurn(ds, []atlasdata.ProbeID{1})
	if MeanTurnover(points) != 0 {
		t.Errorf("static address produced churn %v", MeanTurnover(points))
	}
}

func TestDailyChurnDailyRenumbering(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	// A fresh address every day for 50 days: 100% daily turnover.
	var entries []atlasdata.ConnLogEntry
	for d := 0; d < 50; d++ {
		addr := ip4OfDay(d)
		entries = append(entries,
			v4e(1, simclock.StudyStart.Add(simclock.Duration(d)*day+simclock.Minute),
				simclock.StudyStart.Add(simclock.Duration(d)*day+23*simclock.Hour), addr))
	}
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 50}
	fileLog(ds, 1, entries)
	points := DailyChurn(ds, []atlasdata.ProbeID{1})
	active := 0
	var turnover float64
	for _, p := range points[:49] {
		if p.PrevActive > 0 && p.Active > 0 {
			active++
			turnover += p.Turnover()
		}
	}
	if active == 0 {
		t.Fatal("no active churn days")
	}
	if avg := turnover / float64(active); avg < 0.99 {
		t.Errorf("daily renumbering turnover = %v, want ~1.0", avg)
	}
}

func ip4OfDay(d int) string {
	return "10.0." + itoa(d/250) + "." + itoa(1+d%250)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestChurnPointTurnover(t *testing.T) {
	p := ChurnPoint{PrevActive: 10, Active: 10, Appeared: 2, Gone: 2}
	// union = 12, delta = 4.
	if got := p.Turnover(); got < 0.33 || got > 0.34 {
		t.Errorf("Turnover = %v", got)
	}
	if (ChurnPoint{}).Turnover() != 0 {
		t.Error("empty point turnover should be 0")
	}
}

func TestIntegrationChurnShape(t *testing.T) {
	w, rep := paperWorld(t)
	_ = w
	points := DailyChurn(w.Dataset, rep.Filter.GeoProbes)
	mean := MeanTurnover(points)
	// Dynamic renumbering drives substantial daily churn in a probe
	// population dominated by daily/weekly renumberers; the raw vantage
	// analogue in Richter et al. saw 8% across the whole IPv4 space.
	if mean <= 0.05 || mean >= 0.95 {
		t.Errorf("mean daily turnover = %.3f, want a substantial interior value", mean)
	}
	// Static-only population churns near zero.
	var staticIDs []atlasdata.ProbeID
	for id, truth := range w.Truth.Probes {
		if truth.Kind == isp.Static {
			staticIDs = append(staticIDs, id)
		}
	}
	if len(staticIDs) > 0 {
		staticMean := MeanTurnover(DailyChurn(w.Dataset, staticIDs))
		if staticMean > mean/2 {
			t.Errorf("static probes churn %.3f, dynamic population %.3f", staticMean, mean)
		}
	}
}
