package core

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// The paper's §8 points at Richter et al. (IMC 2016): the set of active
// IPv4 addresses a large vantage sees changes by ~8% day over day, and
// asks how much of that churn dynamic renumbering explains. This file
// computes exactly that series over a dataset: the day-over-day
// turnover of the active address set.

// ChurnPoint is one day's address-set turnover relative to the previous
// day.
type ChurnPoint struct {
	// Day is the zero-based study day (the later of the two compared).
	Day int
	// PrevActive and Active are the sizes of the two daily address sets.
	PrevActive int
	Active     int
	// Appeared counts addresses active today but not yesterday; Gone
	// counts addresses active yesterday but not today.
	Appeared int
	Gone     int
}

// Turnover returns the symmetric-difference ratio: |Δ| / |union|, the
// day-over-day churn share.
func (c ChurnPoint) Turnover() float64 {
	union := c.PrevActive + c.Appeared
	if union == 0 {
		return 0
	}
	return float64(c.Appeared+c.Gone) / float64(union)
}

// activeDays returns the study days, first to last, that a session
// overlaps; 0 and -1 if it overlaps none, which DailyChurn's walk
// neither counts nor stops at.
func activeDays(s atlasdata.ConnLogSample) (first, last int) {
	start, end := s.StartTime(), s.EndTime()
	if first = start.DayWithinStudy(); first < 0 {
		if !start.Before(simclock.StudyStart) {
			return 0, -1 // starts after the study
		}
		first = 0
	}
	if last = end.DayWithinStudy(); last < 0 {
		if !end.After(simclock.StudyStart) {
			return 0, -1 // ends before the study
		}
		last = studyDays - 1
	}
	return first, last
}

// DailyChurn computes the day-over-day churn series over the given
// probes (pass a FilterResult's GeoProbes for the paper-aligned
// population, or all probe IDs for the raw vantage view): each study
// day's set of IPv4 addresses with at least one connection overlapping
// that day, compared with the day before's. It holds two days' sets at
// a time, walking each probe's log, which must be sorted by start as a
// Dataset keeps it, with a cursor past the sessions that ended before
// the day.
func DailyChurn(ds *atlasdata.Dataset, ids []atlasdata.ProbeID) []ChurnPoint {
	logs := make([][]atlasdata.ConnLogSample, len(ids))
	for i, id := range ids {
		logs[i] = ds.ConnLogs[id]
	}
	prev, cur := make(map[ip4.Addr]bool), make(map[ip4.Addr]bool)
	var out []ChurnPoint
	for d := 0; d < studyDays; d++ {
		prev, cur = cur, prev
		clear(cur)
		for i, log := range logs {
			for len(log) > 0 {
				if _, last := activeDays(log[0]); last >= d {
					break
				}
				log = log[1:]
			}
			logs[i] = log
			for _, s := range log {
				first, last := activeDays(s)
				if first > d {
					break // the later sessions start later still
				}
				if last >= d && s.IsV4() {
					cur[s.V4Addr()] = true
				}
			}
		}
		if d == 0 {
			continue
		}
		p := ChurnPoint{Day: d, PrevActive: len(prev), Active: len(cur)}
		for a := range cur {
			if !prev[a] {
				p.Appeared++
			}
		}
		p.Gone = p.PrevActive - (p.Active - p.Appeared)
		out = append(out, p)
	}
	return out
}

// MeanTurnover averages the turnover across days with activity on both
// sides; days where either set is empty are skipped.
func MeanTurnover(points []ChurnPoint) float64 {
	var sum float64
	n := 0
	for _, p := range points {
		if p.PrevActive == 0 || p.Active == 0 {
			continue
		}
		sum += p.Turnover()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
