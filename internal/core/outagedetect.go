package core

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

// NetworkOutage is a detected loss-of-connectivity episode during which
// the probe stayed up: a run of k-root rounds with every ping lost and a
// growing LTS (paper §3.4, Table 3). Start and End are the first and
// last all-lost rounds, which under-estimates the true outage by up to
// two round intervals — exactly the paper's stated error bound.
type NetworkOutage struct {
	Probe atlasdata.ProbeID
	Start simclock.Time
	End   simclock.Time
}

// Duration returns the detected outage span. A single-round outage has
// zero span; callers treat it as "under one round interval".
func (n NetworkOutage) Duration() simclock.Duration { return n.End.Sub(n.Start) }

// Reboot is a detected probe reboot from the SOS-uptime dataset: the
// uptime counter reset, implying the probe booted at At (paper §3.5,
// Table 4).
type Reboot struct {
	Probe atlasdata.ProbeID
	// At is the inferred boot instant: report timestamp minus counter.
	At simclock.Time
}

// BootSlack absorbs clock skew between the probe's uptime counter and
// the controller's record timestamps when comparing boot instants.
const BootSlack = 90 * simclock.Second

// RebootsPerDay counts, for each study day, how many distinct probes
// rebooted — the paper's Figure 6 series.
func RebootsPerDay(reboots map[atlasdata.ProbeID][]Reboot) []int {
	days := int(simclock.StudyEnd.Sub(simclock.StudyStart) / simclock.Day)
	counts := make([]int, days)
	for _, rs := range reboots {
		seen := make(map[int]bool)
		for _, r := range rs {
			d := r.At.DayWithinStudy()
			if d >= 0 && !seen[d] {
				seen[d] = true
				counts[d]++
			}
		}
	}
	return counts
}

// DetectFirmwareDays finds the days on which firmware updates were
// distributed: the paper flags periods where daily unique-probe reboots
// exceed twice the median for at least two consecutive days, and takes
// the first day of each period (§5.2, Figure 6).
func DetectFirmwareDays(perDay []int) []int {
	if len(perDay) == 0 {
		return nil
	}
	sorted := append([]int(nil), perDay...)
	sort.Ints(sorted)
	median := float64(sorted[len(sorted)/2])
	if len(sorted)%2 == 0 {
		median = (float64(sorted[len(sorted)/2-1]) + float64(sorted[len(sorted)/2])) / 2
	}
	threshold := 2 * median
	var out []int
	for d := 0; d < len(perDay); {
		if float64(perDay[d]) > threshold {
			j := d
			for j+1 < len(perDay) && float64(perDay[j+1]) > threshold {
				j++
			}
			if j > d { // at least two consecutive days
				out = append(out, d)
			}
			d = j + 1
			continue
		}
		d++
	}
	return out
}

// firmwareWindow is how long after a push a probe's first reboot is
// attributed to the firmware install.
const firmwareWindow = 2 * simclock.Day

// FilterFirmwareReboots drops, for each probe, the first reboot that
// falls within the window after each firmware day (§5.2) — those reboots
// are effects of dropped connections, not causes.
func FilterFirmwareReboots(reboots []Reboot, firmwareDays []int) []Reboot {
	if len(firmwareDays) == 0 {
		return reboots
	}
	consumed := make([]bool, len(firmwareDays))
	out := reboots[:0:0]
	for _, r := range reboots {
		dropped := false
		for i, d := range firmwareDays {
			if consumed[i] {
				continue
			}
			pushAt := simclock.StudyStart.Add(simclock.Duration(d) * simclock.Day)
			if !r.At.Before(pushAt) && r.At.Sub(pushAt) <= firmwareWindow {
				consumed[i] = true
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, r)
		}
	}
	return out
}

// PingGapThreshold is the minimum silence in the k-root stream around a
// reboot for the reboot to count as a power outage: at the 4-minute
// round cadence, a powered-off probe misses at least one round, so the
// surrounding gap spans at least two intervals.
const PingGapThreshold = 6 * simclock.Minute

// PowerOutage is a detected loss of power at the CPE/probe: a reboot
// coincident with missing k-root rounds (paper §3.5, §5.1). The outage
// duration is estimated from the gap between the last round before and
// the first round after the reboot, the paper's §3.5 estimator.
type PowerOutage struct {
	Probe    atlasdata.ProbeID
	RebootAt simclock.Time
	// GapStart and GapEnd bound the k-root silence around the reboot.
	GapStart simclock.Time
	GapEnd   simclock.Time
}

// Duration returns the estimated outage duration (the ping gap).
func (p PowerOutage) Duration() simclock.Duration { return p.GapEnd.Sub(p.GapStart) }

// RebootGap is the k-root silence surrounding one reboot, before the
// power-outage qualification is applied: Start is the last round at or
// before the boot instant (or boot minus the threshold when no round
// precedes it), End the first round after. Open marks a reboot with no
// round after it yet — resolvable once more rounds arrive, which is how
// a Machine keeps its pairing exact mid-stream.
type RebootGap struct {
	Start simclock.Time
	End   simclock.Time
	Open  bool
}

// PowerOutagesFrom qualifies resolved reboot gaps into power outages.
// gaps must be index-aligned with reboots (Machine.Reboots); kept is
// the subset of reboots surviving firmware filtering, in the same order
// (boot instants strictly increase, so a two-pointer alignment by At is
// exact). Open gaps and gaps at or under the ping-gap threshold do not
// qualify. Pairing each reboot with its own gap is independent of the
// other reboots, so filtering before or after resolving gaps yields the
// same outages — the seam that lets a Machine resolve gaps online and
// the (retroactive) firmware filter run only once every probe's
// reboots are known.
func PowerOutagesFrom(reboots []Reboot, gaps []RebootGap, kept []Reboot) []PowerOutage {
	var out []PowerOutage
	i := 0
	for _, r := range kept {
		for i < len(reboots) && reboots[i].At != r.At {
			i++
		}
		if i >= len(reboots) {
			break
		}
		g := gaps[i]
		i++
		if g.Open {
			continue
		}
		if g.End.Sub(g.Start) > PingGapThreshold {
			out = append(out, PowerOutage{
				Probe:    r.Probe,
				RebootAt: r.At,
				GapStart: g.Start,
				GapEnd:   g.End,
			})
		}
	}
	return out
}
