package core

import (
	"sort"

	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
)

// The paper's motivating application (§1, §6, §8): operators blocklist
// addresses seen misbehaving, implicitly assuming the address keeps
// identifying the same host. This file turns the measurements into
// actionable advice per AS: how long an address-keyed entry stays
// valid, whether the subscriber can shed it on demand by rebooting, and
// whether widening the block to the enclosing prefix helps.

// BlacklistAdvice is the per-AS recommendation.
type BlacklistAdvice struct {
	ASN    uint32
	Probes int

	// MedianHoldHours is the median bounded address duration: the
	// half-life of an address-keyed entry.
	MedianHoldHours float64
	// P90HoldHours is the 90th percentile hold time; entries older than
	// this almost certainly point at a different subscriber.
	P90HoldHours float64
	// EvadableByReboot reports that the AS renumbers on reconnects of
	// any duration (§5.3), so a subscriber escapes an entry at will.
	EvadableByReboot bool
	// PrefixEscapeShare is the share of observed changes that left the
	// enclosing BGP prefix: the failure rate of prefix-widened blocks.
	PrefixEscapeShare float64
	// SuggestedTTL is a conservative entry lifetime: the smaller of the
	// median hold time and 24 hours when reboot-evadable, else the
	// median hold time.
	SuggestedTTL simclock.Duration
}

// rebootEvadableShortRate is the sub-hour renumbering share above which
// an AS counts as evadable on demand.
const rebootEvadableShortRate = 0.5

// AdviseBlacklist computes per-AS advice from a finished report's
// filter, outage and prefix analyses. ASes with fewer than minProbes
// analyzable probes or no bounded durations are skipped.
func AdviseBlacklist(rep *Report, minProbes int) []BlacklistAdvice {
	byAS := ByAS(rep.Filter)
	prefixByASN := make(map[uint32]PrefixChangeRow, len(rep.Table7ByAS))
	for _, r := range rep.Table7ByAS {
		prefixByASN[r.ASN] = r
	}

	var out []BlacklistAdvice
	for asn, ids := range byAS {
		if len(ids) < minProbes {
			continue
		}
		var holds stats.Sample
		for _, id := range ids {
			for _, d := range rep.Filter.Views[id].Durations() {
				holds.Add(d.Hours())
			}
		}
		if holds.Len() == 0 {
			continue
		}
		adv := BlacklistAdvice{
			ASN:             asn,
			Probes:          len(ids),
			MedianHoldHours: holds.Median(),
			P90HoldHours:    holds.Quantile(0.9),
		}
		if rep.Outage != nil {
			bins := rep.Outage.DurationBins(rep.Filter, ids)
			_, ev := InferLinkType(bins)
			adv.EvadableByReboot = ev.ShortN >= linkMinShortSamples &&
				ev.ShortRate >= rebootEvadableShortRate
		}
		if row, ok := prefixByASN[asn]; ok {
			adv.PrefixEscapeShare = row.FracBGP()
		}
		ttl := simclock.Duration(adv.MedianHoldHours * float64(simclock.Hour))
		if adv.EvadableByReboot && ttl > 24*simclock.Hour {
			ttl = 24 * simclock.Hour
		}
		adv.SuggestedTTL = ttl
		out = append(out, adv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probes != out[j].Probes {
			return out[i].Probes > out[j].Probes
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}
