// Package core implements the paper's analysis pipeline: address-change
// extraction from connection logs (§3.1), probe filtering (§3.2-3.3,
// Table 2), the total-time-fraction metric and periodic-renumbering
// detection (§4, Table 5, Figures 1-5), outage detection and
// outage-to-gap association (§3.4-3.6, §5, Table 6, Figures 6-9), and
// dynamic-prefix analysis (§6, Table 7).
package core

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// AddressChange is one observed IPv4 address change: two consecutive
// IPv4 connection-log entries with different peer addresses. The change
// happened somewhere inside the inter-connection gap (PrevEnd,
// NextStart).
type AddressChange struct {
	Probe   atlasdata.ProbeID
	From    ip4.Addr
	To      ip4.Addr
	PrevEnd simclock.Time
	// NextStart is when the first connection from the new address began.
	NextStart simclock.Time
}

// V4Changes extracts address changes from probe's connection log, as a
// Dataset stores it. Only directly consecutive IPv4 entries count: if an
// IPv6 session intervenes, we cannot tell when (or whether, exactly
// once) the IPv4 address changed, which is the paper's reason for
// filtering dual-stack probes (§3.2).
func V4Changes(probe atlasdata.ProbeID, log []atlasdata.ConnLogSample) []AddressChange {
	var out []AddressChange
	for i := 1; i < len(log); i++ {
		prev, cur := log[i-1], log[i]
		if !prev.IsV4() || !cur.IsV4() {
			continue
		}
		if prev.Addr == cur.Addr {
			continue
		}
		out = append(out, AddressChange{
			Probe:     probe,
			From:      prev.V4Addr(),
			To:        cur.V4Addr(),
			PrevEnd:   prev.EndTime(),
			NextStart: cur.StartTime(),
		})
	}
	return out
}

// AddressDuration is the span for which one IPv4 address stayed assigned
// to a probe, bounded by an observed change on both sides. Durations of
// the first and last addresses in a log are unknown (paper Table 1) and
// are never emitted.
type AddressDuration struct {
	Probe atlasdata.ProbeID
	Addr  ip4.Addr
	// Start is when the address was first observed in use (start of the
	// first connection using it); End is the end of the last connection
	// using it.
	Start simclock.Time
	End   simclock.Time
}

// Duration returns the assignment span.
func (d AddressDuration) Duration() simclock.Duration { return d.End.Sub(d.Start) }

// Hours returns the assignment span in hours, the unit of the paper's
// duration plots.
func (d AddressDuration) Hours() float64 { return d.Duration().Hours() }

// V4Durations extracts bounded address durations from probe's
// connection log, as a Dataset stores it: maximal runs of consecutive
// IPv4 entries sharing an address, where both the run's beginning and
// end are delimited by an observed IPv4 address change. Runs adjacent to
// the log boundaries or to IPv6 entries have unknown extent and are
// dropped.
func V4Durations(probe atlasdata.ProbeID, log []atlasdata.ConnLogSample) []AddressDuration {
	var out []AddressDuration
	// Split into maximal segments of consecutive IPv4 entries; v6
	// entries make neighbouring run boundaries unknowable.
	segStart := -1
	flush := func(end int) {
		if segStart < 0 {
			return
		}
		seg := log[segStart:end]
		segStart = -1
		// Group into address runs.
		runEnd := len(seg)
		type run struct {
			addr       ip4.Addr
			start, end simclock.Time
		}
		var runs []run
		for i := 0; i < runEnd; {
			j := i
			for j < runEnd && seg[j].Addr == seg[i].Addr {
				j++
			}
			runs = append(runs, run{addr: seg[i].V4Addr(), start: seg[i].StartTime(), end: seg[j-1].EndTime()})
			i = j
		}
		// Interior runs are bounded by changes on both sides.
		for k := 1; k < len(runs)-1; k++ {
			out = append(out, AddressDuration{
				Probe: probe,
				Addr:  runs[k].addr,
				Start: runs[k].start,
				End:   runs[k].end,
			})
		}
	}
	for i, e := range log {
		if e.IsV4() {
			if segStart < 0 {
				segStart = i
			}
			continue
		}
		flush(i)
	}
	flush(len(log))
	return out
}
