package core

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

// Cause classifies what happened during an inter-connection gap,
// following the paper's priority ordering (§3.6): a network outage
// indicated by k-root wins; otherwise a reboot coincident with missing
// pings means a power outage; otherwise the gap had no outage.
type Cause int

// Gap causes.
const (
	NoOutage Cause = iota
	NetworkCause
	PowerCause
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case NetworkCause:
		return "network"
	case PowerCause:
		return "power"
	default:
		return "no-outage"
	}
}

// Gap is one inter-connection gap annotated with its outage cause and
// whether the probe's IPv4 address changed across it.
type Gap struct {
	Probe     atlasdata.ProbeID
	PrevEnd   simclock.Time
	NextStart simclock.Time
	Changed   bool
	Cause     Cause
	// OutageDuration is the detected outage length: the loss-run span
	// for network outages (first to last all-lost round, which the paper
	// notes under-estimates by up to eight minutes but does not
	// correct), the ping gap for power outages, zero otherwise.
	OutageDuration simclock.Duration
}

// gapSlack tolerates detector timestamps leaking slightly outside the
// literal gap (pre-outage rounds are up to one interval before the
// connection actually broke).
const gapSlack = 5 * simclock.Minute

// gapClassifier assigns gaps their outage cause from the probe's
// evidence (§3.6). Gaps must come in time order, and networks and
// powers are each time-sorted, so the cursors only move forward.
type gapClassifier struct {
	networks []NetworkOutage
	powers   []PowerOutage
	ni, pi   int
}

// classify returns the next gap's cause and detected outage length.
func (c *gapClassifier) classify(g GapEvent) (Cause, simclock.Duration) {
	lo, hi := g.PrevEnd.Add(-gapSlack), g.NextStart.Add(gapSlack)
	// Skip outages that ended before this gap.
	for c.ni < len(c.networks) && c.networks[c.ni].End.Before(lo) {
		c.ni++
	}
	for c.pi < len(c.powers) && c.powers[c.pi].RebootAt.Before(lo) {
		c.pi++
	}
	switch {
	case c.ni < len(c.networks) && !c.networks[c.ni].Start.After(hi):
		return NetworkCause, c.networks[c.ni].Duration()
	case c.pi < len(c.powers) && !c.powers[c.pi].RebootAt.After(hi):
		return PowerCause, c.powers[c.pi].Duration()
	}
	return NoOutage, 0
}
