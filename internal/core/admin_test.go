package core

import (
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

func TestDetectAdminRenumberingSynthetic(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	eventDay := 100
	// Eight stable probes that all change address on day 100.
	for p := 1; p <= 8; p++ {
		split := simclock.StudyStart.Add(simclock.Duration(eventDay)*day + simclock.Duration(p)*simclock.Hour)
		entries := []atlasdata.ConnLogEntry{
			v4e(p, simclock.StudyStart, split, "10.0.0."+itoa(p)),
			v4e(p, split.Add(20*simclock.Minute), simclock.StudyEnd.Add(-simclock.Hour), "10.1.0."+itoa(p)),
		}
		ds.Probes[atlasdata.ProbeID(p)] = atlasdata.ProbeMeta{
			ID: atlasdata.ProbeID(p), Country: "DE", Version: atlasdata.V3, ConnectedDays: 360,
		}
		fileLog(ds, atlasdata.ProbeID(p), entries)
	}
	res := Filter(ds)
	events := DetectAdminRenumbering(res)
	if len(events) != 1 {
		t.Fatalf("events = %+v, want exactly one", events)
	}
	if events[0].Day != eventDay || events[0].Probes != 8 || events[0].ASN != 100 {
		t.Errorf("event = %+v", events[0])
	}
	if events[0].FracOfAS != 1.0 {
		t.Errorf("FracOfAS = %v", events[0].FracOfAS)
	}
}

func TestDetectAdminRenumberingIgnoresPeriodic(t *testing.T) {
	ds := buildDS(t)
	day := simclock.Day
	// Eight probes that change every single day (DTAG-style): the daily
	// baseline equals the population, so no day is a spike.
	for p := 1; p <= 8; p++ {
		var entries []atlasdata.ConnLogEntry
		for d := 0; d < 200; d++ {
			start := simclock.StudyStart.Add(simclock.Duration(d)*day + simclock.Duration(p)*simclock.Minute)
			entries = append(entries,
				v4e(p, start, start.Add(23*simclock.Hour), "10.0."+itoa(d/250)+"."+itoa(1+d%250)))
		}
		ds.Probes[atlasdata.ProbeID(p)] = atlasdata.ProbeMeta{
			ID: atlasdata.ProbeID(p), Country: "DE", Version: atlasdata.V3, ConnectedDays: 200,
		}
		fileLog(ds, atlasdata.ProbeID(p), entries)
	}
	res := Filter(ds)
	if events := DetectAdminRenumbering(res); len(events) != 0 {
		t.Errorf("periodic AS produced admin events: %+v", events)
	}
}

func TestIntegrationAdminRenumberingRecovered(t *testing.T) {
	w, rep := paperWorld(t)
	events := DetectAdminRenumbering(rep.Filter)
	// Ground truth: MidBohemia Net (AS200090) renumbers on day 142.
	found := false
	for _, e := range events {
		if e.ASN == 200090 {
			found = true
			if e.Day < 141 || e.Day > 143 {
				t.Errorf("admin event on day %d, configured 142", e.Day)
			}
		} else {
			t.Errorf("spurious admin event: %+v", e)
		}
	}
	if !found {
		t.Error("configured administrative renumbering not detected")
	}
	// Truth journal corroborates: most MidBohemia probes recorded it.
	adminProbes := 0
	for _, truth := range w.Truth.Probes {
		if truth.ISP == "MidBohemia Net" && truth.AdminRenumbered {
			adminProbes++
		}
	}
	if adminProbes < 5 {
		t.Errorf("only %d probes recorded the admin renumbering", adminProbes)
	}
}
