package core

import (
	"sort"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// The slice detectors the Machine replaced, kept as the reference its
// tests check it against: each reads one probe's whole, time-sorted
// record slice at once. They are the batch pipeline's code from before
// batch and live shared the machine.

// refClassify is the Table 2 pipeline over whole slices: the category
// and, for an analyzable probe, its changes' home AS and multi-AS flag.
func refClassify(ds *atlasdata.Dataset, meta atlasdata.ProbeMeta) (cat Category, home asdb.ASN, multiAS bool) {
	if meta.ConnectedDays <= minConnectedDays {
		return CatShortLived, 0, false
	}
	raw := ds.ConnLogs[meta.ID]
	var v4, v6 int
	for _, e := range raw {
		if e.IsV4() {
			v4++
		} else {
			v6++
		}
	}
	if v4 == 0 && v6 > 0 {
		return CatIPv6Only, 0, false
	}
	if v6 > 0 {
		return CatDualStack, 0, false
	}
	if singleAddress(raw) {
		return CatNeverChanged, 0, false
	}
	for _, tag := range []string{atlasdata.TagMultihomed, atlasdata.TagDatacentre, atlasdata.TagCore} {
		if meta.HasTag(tag) {
			return CatTaggedMultihomed, 0, false
		}
	}
	if alternatingAddresses(raw) {
		return CatBehaviouralMultihomed, 0, false
	}
	entries, stripped := stripTestingEntry(raw)
	changes := V4Changes(entries)
	if stripped && len(changes) == 0 {
		return CatTestingOnly, 0, false
	}
	if len(changes) == 0 {
		return CatNeverChanged, 0, false
	}
	consistent := true
	for _, ch := range changes {
		fromASN, _, _ := ds.Pfx2AS.Lookup(ch.From, ch.PrevEnd)
		toASN, _, _ := ds.Pfx2AS.Lookup(ch.To, ch.NextStart)
		if fromASN != toASN {
			multiAS = true
		}
		for _, asn := range []asdb.ASN{fromASN, toASN} {
			if asn == 0 {
				continue
			}
			if home == 0 {
				home = asn
			} else if home != asn {
				consistent = false
			}
		}
	}
	if !consistent {
		home = 0
	}
	return CatAnalyzable, home, multiAS
}

// stripTestingEntry removes a leading connection-log entry whose
// address is the RIPE NCC testing address 193.0.0.78 (paper §3.3).
func stripTestingEntry(entries []atlasdata.ConnLogEntry) ([]atlasdata.ConnLogEntry, bool) {
	if len(entries) > 0 && entries[0].IsV4() && entries[0].Addr == ip4.TestingAddr {
		return entries[1:], true
	}
	return entries, false
}

// singleAddress reports whether every entry is IPv4 with one address.
func singleAddress(entries []atlasdata.ConnLogEntry) bool {
	var addr ip4.Addr
	n := 0
	for _, e := range entries {
		if !e.IsV4() {
			return false
		}
		if n == 0 {
			addr = e.Addr
		} else if e.Addr != addr {
			return false
		}
		n++
	}
	return n > 0
}

// alternatingAddresses is the behavioural multihomed detector (§3.2):
// collapse the v4 log into runs of equal addresses; some address
// covering at least three separated runs and a quarter of all runs.
func alternatingAddresses(entries []atlasdata.ConnLogEntry) bool {
	runCount := make(map[uint32]int)
	var prev uint32
	total := 0
	for _, e := range entries {
		if !e.IsV4() {
			continue
		}
		a := uint32(e.Addr)
		if total > 0 && a == prev {
			continue
		}
		runCount[a]++
		prev = a
		total++
	}
	if total < 5 {
		return false
	}
	for _, c := range runCount {
		if c >= 3 && float64(c) >= 0.25*float64(total) {
			return true
		}
	}
	return false
}

// gapSpans extracts every inter-connection gap of a stripped log.
func gapSpans(entries []atlasdata.ConnLogEntry) []GapEvent {
	var out []GapEvent
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		out = append(out, GapEvent{
			PrevEnd:   prev.End,
			NextStart: cur.Start,
			Changed:   prev.IsV4() && cur.IsV4() && prev.Addr != cur.Addr,
		})
	}
	return out
}

// refNetworkOutages finds the qualifying loss runs in a probe's rounds,
// a run still open at the end of the input included.
func refNetworkOutages(rounds []atlasdata.KRootRound) []NetworkOutage {
	var out []NetworkOutage
	i := 0
	for i < len(rounds) {
		if !rounds[i].AllLost() {
			i++
			continue
		}
		j := i
		for j+1 < len(rounds) && rounds[j+1].AllLost() {
			j++
		}
		ltsOK := false
		if j > i {
			ltsOK = rounds[j].LTS > rounds[i].LTS
		} else {
			ltsOK = rounds[i].LTS > ltsSyncBound
		}
		if ltsOK {
			out = append(out, NetworkOutage{
				Probe: rounds[i].Probe,
				Start: rounds[i].Timestamp,
				End:   rounds[j].Timestamp,
			})
		}
		i = j + 1
	}
	return out
}

// refReboots finds the counter resets in a probe's uptime records.
func refReboots(recs []atlasdata.UptimeRecord) []Reboot {
	var out []Reboot
	var prevBoot simclock.Time
	for i, r := range recs {
		boot := r.Timestamp.Add(-simclock.Duration(r.Uptime))
		if i > 0 && boot.Sub(prevBoot) > BootSlack {
			out = append(out, Reboot{Probe: r.Probe, At: boot})
		}
		if i == 0 || boot.After(prevBoot) {
			prevBoot = boot
		}
	}
	return out
}

// refRebootGaps computes each reboot's surrounding k-root silence by
// binary search over all the rounds.
func refRebootGaps(reboots []Reboot, rounds []atlasdata.KRootRound) []RebootGap {
	out := make([]RebootGap, len(reboots))
	for k, r := range reboots {
		i := sort.Search(len(rounds), func(k int) bool {
			return rounds[k].Timestamp.After(r.At)
		})
		g := RebootGap{}
		if i > 0 {
			g.Start = rounds[i-1].Timestamp
		} else {
			g.Start = r.At.Add(-PingGapThreshold)
		}
		if i < len(rounds) {
			g.End = rounds[i].Timestamp
		} else {
			g.Open = true
		}
		out[k] = g
	}
	return out
}

// detectPowerOutages pairs reboots with the k-root silence around them.
func detectPowerOutages(reboots []Reboot, rounds []atlasdata.KRootRound) []PowerOutage {
	return PowerOutagesFrom(reboots, refRebootGaps(reboots, rounds), reboots)
}

// refPrefixChanges computes one view's Table 7 counters from its
// changes.
func refPrefixChanges(ds *atlasdata.Dataset, view *ProbeView) PrefixChangeRow {
	var row PrefixChangeRow
	for _, ch := range view.Changes {
		_, fromPfx, okFrom := ds.Pfx2AS.Lookup(ch.From, ch.PrevEnd)
		_, toPfx, okTo := ds.Pfx2AS.Lookup(ch.To, ch.NextStart)
		row.Changes++
		if !okFrom || !okTo {
			row.Unrouted++
			continue
		}
		if fromPfx != toPfx {
			row.DiffBGP++
		}
		if ch.From.Slash16() != ch.To.Slash16() {
			row.DiffS16++
		}
		if ch.From.Slash8() != ch.To.Slash8() {
			row.DiffS8++
		}
	}
	return row
}

// associateGaps classifies every gap of a stripped log.
func associateGaps(entries []atlasdata.ConnLogEntry, networks []NetworkOutage, powers []PowerOutage) []Gap {
	c := gapClassifier{networks: networks, powers: powers}
	var out []Gap
	for i, g := range gapSpans(entries) {
		cause, d := c.classify(g)
		out = append(out, Gap{Probe: entries[i+1].Probe, PrevEnd: g.PrevEnd, NextStart: g.NextStart,
			Changed: g.Changed, Cause: cause, OutageDuration: d})
	}
	return out
}
