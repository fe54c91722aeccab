package core

import (
	"fmt"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
	"dynaddr/internal/simclock"
)

func v6Entry(probe, day int, addr string) atlasdata.ConnLogEntry {
	start := simclock.StudyStart.Add(simclock.Duration(day)*simclock.Day + simclock.Hour)
	return atlasdata.ConnLogEntry{
		Probe: atlasdata.ProbeID(probe), Start: start, End: start.Add(4 * simclock.Hour),
		Family: atlasdata.V6, V6Addr: addr,
	}
}

func TestAnalyzeV6ProbeRotating(t *testing.T) {
	var entries []atlasdata.ConnLogEntry
	for d := 0; d < 30; d++ {
		entries = append(entries, v6Entry(1, d, fmt.Sprintf("2001:db8::%d", d)))
	}
	st := AnalyzeV6Probe(1, storedLog(entries))
	if st.Addresses != 30 || st.Ephemeral != 30 {
		t.Errorf("stats = %+v, want 30 ephemeral addresses", st)
	}
	if !st.Rotating {
		t.Error("daily rotation not detected")
	}
	if st.EphemeralFrac() != 1 {
		t.Errorf("EphemeralFrac = %v", st.EphemeralFrac())
	}
}

func TestAnalyzeV6ProbeStable(t *testing.T) {
	var entries []atlasdata.ConnLogEntry
	for d := 0; d < 30; d++ {
		entries = append(entries, v6Entry(1, d, "2001:db8::1"))
	}
	st := AnalyzeV6Probe(1, storedLog(entries))
	if st.Addresses != 1 || st.Ephemeral != 0 || st.Rotating {
		t.Errorf("stable probe stats = %+v", st)
	}
}

func TestAnalyzeV6ProbeIgnoresV4(t *testing.T) {
	entries := []atlasdata.ConnLogEntry{
		v4e(1, simclock.StudyStart, simclock.StudyStart.Add(simclock.Hour), "10.0.0.1"),
	}
	if st := AnalyzeV6Probe(1, storedLog(entries)); st.Addresses != 0 {
		t.Errorf("v4-only probe has v6 stats: %+v", st)
	}
}

func TestAnalyzeV6SpanningSession(t *testing.T) {
	// An 8-hour session crossing midnight is still a short-lived
	// address: ephemerality is lifetime-based, not calendar-based.
	e := atlasdata.ConnLogEntry{
		Probe:  1,
		Start:  simclock.StudyStart.Add(10*simclock.Day + 20*simclock.Hour),
		End:    simclock.StudyStart.Add(11*simclock.Day + 4*simclock.Hour),
		Family: atlasdata.V6, V6Addr: "2001:db8::7",
	}
	st := AnalyzeV6Probe(1, storedLog([]atlasdata.ConnLogEntry{e}))
	if st.Ephemeral != 1 {
		t.Errorf("midnight-spanning short-lived address not ephemeral: %+v", st)
	}
	// The same address reappearing a week later is not ephemeral.
	later := e
	later.Start = e.Start.Add(7 * simclock.Day)
	later.End = e.End.Add(7 * simclock.Day)
	st = AnalyzeV6Probe(1, storedLog([]atlasdata.ConnLogEntry{e, later}))
	if st.Ephemeral != 0 {
		t.Errorf("week-spanning address counted ephemeral: %+v", st)
	}
}

func TestIntegrationV6Ephemerality(t *testing.T) {
	w, _ := paperWorld(t)
	rep := AnalyzeV6(w.Dataset)
	if len(rep.Probes) == 0 {
		t.Fatal("no IPv6 probes analysed")
	}
	// With 60% of v6-capable hosts rotating daily, the address-weighted
	// ephemeral share is dominated by rotators (hundreds of addresses
	// each versus a handful for stable hosts) — the >90% ephemeral
	// shape Plonka & Berger report.
	if rep.EphemeralShare < 0.8 {
		t.Errorf("ephemeral share = %.2f, want > 0.8", rep.EphemeralShare)
	}
	// Rotation detection should agree with the generative truth.
	correct, wrong := 0, 0
	byID := map[atlasdata.ProbeID]V6ProbeStats{}
	for _, st := range rep.Probes {
		byID[st.Probe] = st
	}
	for id, truth := range w.Truth.Probes {
		st, ok := byID[id]
		if !ok || truth.Special == sim.Mover {
			continue
		}
		// Only dual-stack/v6-only probes with decent activity are
		// classifiable.
		if st.Addresses < 5 && !truth.V6Rotating {
			continue
		}
		if st.Rotating == truth.V6Rotating {
			correct++
		} else {
			wrong++
		}
	}
	if correct == 0 {
		t.Fatal("no rotation comparisons possible")
	}
	if frac := float64(correct) / float64(correct+wrong); frac < 0.85 {
		t.Errorf("rotation detection accuracy = %.2f (correct=%d wrong=%d)", frac, correct, wrong)
	}
}
