package core

import (
	"testing"
	"testing/quick"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// genLog builds a synthetic connection log from compact fuzz input:
// each element selects an address from a small alphabet (0 => IPv6
// session), with strictly increasing non-overlapping times.
func genLog(choices []byte) []atlasdata.ConnLogEntry {
	var out []atlasdata.ConnLogEntry
	t := simclock.StudyStart
	for _, c := range choices {
		dur := simclock.Duration(1+int(c%7)) * simclock.Hour
		e := atlasdata.ConnLogEntry{Probe: 1, Start: t, End: t.Add(dur)}
		if c%11 == 0 {
			e.Family = atlasdata.V6
			e.V6Addr = "2001:db8::1"
		} else {
			e.Family = atlasdata.V4
			e.Addr = ip4.FromOctets(10, 0, 0, 1+c%5)
		}
		out = append(out, e)
		t = t.Add(dur + 10*simclock.Minute)
	}
	return out
}

func TestPropertyChangesMatchDurations(t *testing.T) {
	// For any log: every bounded duration is delimited by changes, so
	// a v6-free log satisfies len(durations) == max(0, changes-1) after
	// run collapsing.
	f := func(choices []byte) bool {
		entries := genLog(choices)
		changes := changesOf(entries)
		durations := durationsOf(entries)
		// Durations never overlap and are ordered.
		for i := 1; i < len(durations); i++ {
			if durations[i].Start < durations[i-1].End {
				return false
			}
		}
		// Every duration is strictly positive and bounded by the log.
		for _, d := range durations {
			if d.Duration() <= 0 {
				return false
			}
			if d.Start < entries[0].Start || d.End > entries[len(entries)-1].End {
				return false
			}
		}
		// Durations cannot outnumber changes-1 (each needs a change on
		// both sides; v6 splits only reduce the count).
		if len(changes) > 0 && len(durations) > len(changes)-1 {
			return false
		}
		if len(changes) == 0 && len(durations) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyChangeEndpointsDiffer(t *testing.T) {
	f := func(choices []byte) bool {
		for _, ch := range changesOf(genLog(choices)) {
			if ch.From == ch.To {
				return false
			}
			if ch.NextStart < ch.PrevEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDurationAddressesAppearInLog(t *testing.T) {
	f := func(choices []byte) bool {
		entries := genLog(choices)
		present := map[ip4.Addr]bool{}
		for _, e := range entries {
			if e.IsV4() {
				present[e.Addr] = true
			}
		}
		for _, d := range durationsOf(entries) {
			if !present[d.Addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTTFMassSumsToOne(t *testing.T) {
	f := func(choices []byte) bool {
		durations := durationsOf(genLog(choices))
		ttf := TTF(durations)
		if len(durations) == 0 {
			return ttf.Total() == 0
		}
		var acc float64
		for _, v := range ttf.Values() {
			acc += ttf.MassAt(v)
		}
		return acc > 0.999 && acc < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGapsCoverLog(t *testing.T) {
	// associateGaps yields exactly len(entries)-1 gaps, in order,
	// spanning each inter-connection interval.
	f := func(choices []byte) bool {
		entries := genLog(choices)
		gaps := associateGaps(entries, nil, nil)
		if len(entries) == 0 {
			return len(gaps) == 0
		}
		if len(gaps) != len(entries)-1 {
			return false
		}
		for i, g := range gaps {
			if g.PrevEnd != entries[i].End || g.NextStart != entries[i+1].Start {
				return false
			}
			if g.Cause != NoOutage {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRebootDetectionStable(t *testing.T) {
	// Uptime records consistent with continuous operation never yield
	// reboots, whatever the reporting cadence.
	f := func(gaps []uint16) bool {
		var recs []atlasdata.UptimeRecord
		t0 := simclock.StudyStart
		boot := t0.Add(-simclock.Day)
		at := t0
		for _, g := range gaps {
			at = at.Add(simclock.Duration(g) + simclock.Minute)
			recs = append(recs, atlasdata.UptimeRecord{
				Probe: 1, Timestamp: at, Uptime: int64(at.Sub(boot)),
			})
		}
		var m Machine
		for _, r := range recs {
			m.Uptime(r)
		}
		return m.RebootCount == 0 && len(refReboots(recs)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
