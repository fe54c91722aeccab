package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

// The paper defers IPv6 to future work but cites Plonka & Berger (IMC
// 2015): more than 90% of client IPv6 addresses are ephemeral, and RFC
// 4941 recommends rotating privacy addresses every 24 hours. The
// filtering pipeline discards IPv6 traffic for the IPv4 analyses; this
// file analyses it instead: per-probe IPv6 address lifetimes and the
// ephemeral share, over exactly the dual-stack and IPv6-only logs that
// Table 2 sets aside.

// V6ProbeStats summarises one probe's IPv6 address usage.
type V6ProbeStats struct {
	Probe atlasdata.ProbeID
	// Addresses is the number of distinct IPv6 addresses observed.
	Addresses int
	// Ephemeral counts addresses whose observed lifetime (first use to
	// last use) stayed under two days — the daily-rotation signature of
	// RFC 4941 privacy addresses.
	Ephemeral int
	// Rotating reports a daily-rotation signature: the probe used a new
	// address on (nearly) every active day.
	Rotating bool
}

// EphemeralFrac returns the share of the probe's addresses seen on only
// one day.
func (s V6ProbeStats) EphemeralFrac() float64 {
	if s.Addresses == 0 {
		return 0
	}
	return float64(s.Ephemeral) / float64(s.Addresses)
}

// rotationActiveShare is the distinct-address-per-active-day share above
// which a probe counts as rotating.
const rotationActiveShare = 0.8

// ephemeralLifetime bounds an ephemeral address's observed lifetime: a
// daily-rotated address lives under a day; two days of slack tolerates
// sessions straddling midnight and reconnect jitter.
const ephemeralLifetime = 2 * simclock.Day

// AnalyzeV6Probe computes IPv6 stats from probe's raw connection log,
// as a Dataset stores it (not the filtered view — IPv6 probes never
// reach the views). Addresses are told apart by their index in the
// Dataset's V6Table, which equal literals share.
func AnalyzeV6Probe(probe atlasdata.ProbeID, log []atlasdata.ConnLogSample) V6ProbeStats {
	st := V6ProbeStats{Probe: probe}
	type span struct{ first, last uint32 }
	spans := map[uint32]*span{}
	activeDays := map[int]bool{}
	for _, e := range log {
		if e.IsV4() {
			continue
		}
		if s, ok := spans[e.Addr]; ok {
			s.first = min(s.first, e.Start)
			s.last = max(s.last, e.End)
		} else {
			spans[e.Addr] = &span{first: e.Start, last: e.End}
		}
		if d := e.StartTime().DayWithinStudy(); d >= 0 {
			activeDays[d] = true
		}
	}
	st.Addresses = len(spans)
	for _, s := range spans {
		if simclock.Time(s.last).Sub(simclock.Time(s.first)) < ephemeralLifetime {
			st.Ephemeral++
		}
	}
	if len(activeDays) >= 5 &&
		float64(st.Addresses) >= rotationActiveShare*float64(len(activeDays)) {
		st.Rotating = true
	}
	return st
}

// V6Report aggregates IPv6 behaviour across a dataset.
type V6Report struct {
	// Probes lists per-probe stats for every probe with IPv6 activity,
	// sorted by probe ID.
	Probes []V6ProbeStats
	// EphemeralShare is the population-level fraction of IPv6 addresses
	// seen on one day only.
	EphemeralShare float64
	// RotatingProbes counts probes with the daily-rotation signature.
	RotatingProbes int
}

// AnalyzeV6 runs the IPv6 ephemerality analysis over every probe in the
// dataset that used IPv6 at all.
func AnalyzeV6(ds *atlasdata.Dataset) *V6Report {
	rep := &V6Report{}
	var addrs, ephemeral int
	for _, id := range ds.ProbeIDs() {
		st := AnalyzeV6Probe(id, ds.ConnLogs[id])
		if st.Addresses == 0 {
			continue
		}
		rep.Probes = append(rep.Probes, st)
		addrs += st.Addresses
		ephemeral += st.Ephemeral
		if st.Rotating {
			rep.RotatingProbes++
		}
	}
	if addrs > 0 {
		rep.EphemeralShare = float64(ephemeral) / float64(addrs)
	}
	sort.Slice(rep.Probes, func(i, j int) bool { return rep.Probes[i].Probe < rep.Probes[j].Probe })
	return rep
}
