package liveanalysis

import (
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
)

// The slice detectors core.Machine replaced, kept here as the
// reference for its incremental reboot-gap resolution.

// detectReboots finds the counter resets in time-sorted uptime records.
func detectReboots(recs []atlasdata.UptimeRecord) []core.Reboot {
	var out []core.Reboot
	var prevBoot simclock.Time
	for i, r := range recs {
		boot := r.Timestamp.Add(-simclock.Duration(r.Uptime))
		if i > 0 && boot.Sub(prevBoot) > core.BootSlack {
			out = append(out, core.Reboot{Probe: r.Probe, At: boot})
		}
		if i == 0 || boot.After(prevBoot) {
			prevBoot = boot
		}
	}
	return out
}

// resolveRebootGaps finds each reboot's surrounding k-root silence by
// binary search over every round: the last round at or before the boot
// instant, the first one after.
func resolveRebootGaps(reboots []core.Reboot, rounds []atlasdata.KRootRound) []core.RebootGap {
	out := make([]core.RebootGap, len(reboots))
	for k, r := range reboots {
		i := sort.Search(len(rounds), func(k int) bool {
			return rounds[k].Timestamp.After(r.At)
		})
		g := core.RebootGap{}
		if i > 0 {
			g.Start = rounds[i-1].Timestamp
		} else {
			g.Start = r.At.Add(-core.PingGapThreshold)
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

// genTimeline builds a model-conforming probe history: a boot schedule,
// k-root rounds at a jittery cadence with occasional skips (so reboot
// gaps vary), and truthful uptime reports. Returned slices are
// time-sorted with strictly increasing timestamps across both kinds.
func genTimeline(rng *rand.Rand, probe atlasdata.ProbeID) ([]atlasdata.KRootRound, []atlasdata.UptimeRecord) {
	var rounds []atlasdata.KRootRound
	var uptime []atlasdata.UptimeRecord

	boot := simclock.StudyStart.Add(-simclock.Duration(rng.Intn(7200)) * simclock.Second)
	end := simclock.StudyStart.Add(10 * simclock.Day)
	nextRound := simclock.StudyStart.Add(simclock.Duration(rng.Intn(240)) * simclock.Second)
	nextUp := simclock.StudyStart.Add(simclock.Duration(600+rng.Intn(1800)) * simclock.Second)
	nextBoot := simclock.StudyStart.Add(simclock.Duration(3600+rng.Intn(86400)) * simclock.Second)

	for nextRound.Before(end) || nextUp.Before(end) {
		// Reboots happen between reports; the next uptime record's
		// counter reflects the new boot instant.
		if nextBoot.Before(nextRound) && nextBoot.Before(nextUp) {
			boot = nextBoot
			nextBoot = nextBoot.Add(simclock.Duration(3600+rng.Intn(2*86400)) * simclock.Second)
			// A reboot often silences a few k-root rounds.
			if rng.Intn(3) > 0 {
				nextRound = boot.Add(simclock.Duration(300+rng.Intn(3600)) * simclock.Second)
			}
			continue
		}
		if nextRound.Before(nextUp) {
			rounds = append(rounds, atlasdata.KRootRound{
				Probe: probe, Timestamp: nextRound, Sent: 3, Success: 3, LTS: 30,
			})
			nextRound = nextRound.Add(simclock.Duration(230+rng.Intn(30)) * simclock.Second)
			if rng.Intn(20) == 0 { // drop a stretch of rounds
				nextRound = nextRound.Add(simclock.Duration(rng.Intn(7200)) * simclock.Second)
			}
			continue
		}
		uptime = append(uptime, atlasdata.UptimeRecord{
			Probe: probe, Timestamp: nextUp, Uptime: int64(nextUp.Sub(boot)),
		})
		nextUp = nextUp.Add(simclock.Duration(900+rng.Intn(2700)) * simclock.Second)
	}
	return rounds, uptime
}

// feed merges a timeline into one time-ordered record stream, as
// Dataset.EachRecord does.
func feed(rounds []atlasdata.KRootRound, uptime []atlasdata.UptimeRecord, fn func(round bool, ri, ui int)) {
	ri, ui := 0, 0
	for ri < len(rounds) || ui < len(uptime) {
		if ui >= len(uptime) || (ri < len(rounds) && rounds[ri].Timestamp.Before(uptime[ui].Timestamp)) {
			ri++
			fn(true, ri, ui)
		} else {
			ui++
			fn(false, ri, ui)
		}
	}
}

// TestDetectorMatchesBatchResolution replays merged round/uptime
// timelines through a machine and checks, at every barrier, that its
// reboots and resolved gaps equal the slice reference over the records
// seen so far — including while the watermark pruning is actively
// shrinking the round deque, and through the power-outage
// qualification.
func TestDetectorMatchesBatchResolution(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		probe := atlasdata.ProbeID(1000 + seed)
		rounds, uptime := genTimeline(rng, probe)
		if len(uptime) < 10 {
			t.Fatalf("seed %d: degenerate timeline", seed)
		}

		m := core.Machine{Probe: probe, KeepEvents: true}
		step, maxDeque := 0, 0
		feed(rounds, uptime, func(round bool, ri, ui int) {
			if round {
				m.KRoot(rounds[ri-1])
			} else {
				m.Uptime(uptime[ui-1])
			}
			maxDeque = max(maxDeque, len(m.Rounds))
			if step++; step%97 != 0 && ri < len(rounds) && ui < len(uptime) {
				return
			}
			wantReboots := detectReboots(uptime[:ui])
			if !reflect.DeepEqual(m.Reboots, wantReboots) {
				t.Fatalf("seed %d step %d: reboots diverge: got %v want %v", seed, step, m.Reboots, wantReboots)
			}
			wantGaps := resolveRebootGaps(wantReboots, rounds[:ri])
			got := m.RebootGaps
			if len(got) == 0 {
				got = nil
			}
			if len(wantGaps) == 0 {
				wantGaps = nil
			}
			if !reflect.DeepEqual(got, wantGaps) {
				t.Fatalf("seed %d step %d: gaps diverge:\ngot  %v\nwant %v", seed, step, got, wantGaps)
			}
			wantPow := core.PowerOutagesFrom(wantReboots, wantGaps, wantReboots)
			gotPow := core.PowerOutagesFrom(m.Reboots, m.RebootGaps, m.Reboots)
			if !reflect.DeepEqual(gotPow, wantPow) {
				t.Fatalf("seed %d step %d: power outages diverge", seed, step)
			}
		})
		// The pruning must actually bound the deque: rounds come every
		// ~4 minutes, uptime reports every ~15-60, so the retained
		// window is a handful of rounds, never the full history.
		if maxDeque >= len(rounds)/2 {
			t.Fatalf("seed %d: round deque grew to %d of %d rounds; pruning ineffective", seed, maxDeque, len(rounds))
		}
	}
}

// TestDetectorRestore copies a machine's exported state mid-stream (as
// a checkpoint does) into a fresh one, continues both on the same
// suffix, and demands identical final state — pinning that Restore
// rebuilds everything the machine derives.
func TestDetectorRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	probe := atlasdata.ProbeID(7)
	rounds, uptime := genTimeline(rng, probe)

	type rec struct {
		round bool
		r     atlasdata.KRootRound
		u     atlasdata.UptimeRecord
	}
	var recs []rec
	feed(rounds, uptime, func(round bool, ri, ui int) {
		if round {
			recs = append(recs, rec{round: true, r: rounds[ri-1]})
		} else {
			recs = append(recs, rec{u: uptime[ui-1]})
		}
	})
	apply := func(m *core.Machine, e rec) {
		if e.round {
			m.KRoot(e.r)
		} else {
			m.Uptime(e.u)
		}
	}
	m := &core.Machine{Probe: probe, KeepEvents: true}
	cut := len(recs) * 2 / 5
	for _, e := range recs[:cut] {
		apply(m, e)
	}

	restored := *m
	restored.RunCount = maps.Clone(m.RunCount)
	restored.TTF = *m.TTF.Clone()
	restored.RecentOutages = append([]core.Span(nil), m.RecentOutages...)
	restored.RecentReboots = append([]simclock.Time(nil), m.RecentReboots...)
	restored.RawHours = append([]float64(nil), m.RawHours...)
	restored.Gaps = append([]core.GapEvent(nil), m.Gaps...)
	restored.Networks = append([]core.NetworkOutage(nil), m.Networks...)
	restored.Reboots = append([]core.Reboot(nil), m.Reboots...)
	restored.RebootGaps = append([]core.RebootGap(nil), m.RebootGaps...)
	restored.Rounds = append([]simclock.Time(nil), m.Rounds...)
	restored.Restore()

	for _, e := range recs[cut:] {
		apply(m, e)
		apply(&restored, e)
	}
	if !reflect.DeepEqual(m.Reboots, restored.Reboots) ||
		!reflect.DeepEqual(m.RebootGaps, restored.RebootGaps) ||
		!reflect.DeepEqual(m.Rounds, restored.Rounds) {
		t.Fatalf("restored machine diverged from uninterrupted one")
	}
}

// TestChurnTablePartitionsPrefix feeds random address changes through a
// machine that keeps both its own Table 7 row and a churn table's day
// buckets. The row must match the per-change rule, the buckets must sum
// back to it (every change lands in exactly one window), and the table
// must round-trip through its sparse checkpoint form.
func TestChurnTablePartitionsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Half of 1-100.x.0.0 is routed, as /15s, so routed changes can
	// cross a /16 inside one BGP prefix. Addresses come from 1-3.0-7.x.x.
	var entries []pfx2as.Entry
	for a := 1; a <= 100; a++ {
		for b := 0; b < 256; b += 4 {
			entries = append(entries, pfx2as.Entry{Prefix: ip4.PrefixFrom(ip4.FromOctets(byte(a), byte(b), 0, 0), 15), ASN: asdb.ASN(a)})
		}
	}
	tbl, err := pfx2as.NewTable(entries)
	if err != nil {
		t.Fatal(err)
	}
	pfx := pfx2as.NewSnapshotStore()
	for mo := pfx2as.Month(201412); mo <= 201512; mo++ {
		pfx.Put(mo, tbl)
	}

	m := core.Machine{Probe: 1, KeepEvents: true}
	var tab core.ChurnTable
	var want core.PrefixChangeRow
	ts := simclock.StudyStart.Add(-simclock.Day)
	prev := ip4.FromOctets(1, 0, 0, 1)
	m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: ts, End: ts + 60, Addr: prev}, pfx, &tab)
	for i := 0; i < 500; i++ {
		ts = ts.Add(simclock.Duration(60+rng.Intn(2*86400)) * simclock.Second)
		to := prev
		for to == prev {
			to = ip4.FromOctets(byte(rng.Intn(3)+1), byte(rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(254)+1))
		}
		_, fromPfx, okFrom := pfx.Lookup(prev, ts-60)
		_, toPfx, okTo := pfx.Lookup(to, ts)
		want.Changes++
		if !okFrom || !okTo {
			want.Unrouted++
		} else {
			if fromPfx != toPfx {
				want.DiffBGP++
			}
			if prev.Slash16() != to.Slash16() {
				want.DiffS16++
			}
			if prev.Slash8() != to.Slash8() {
				want.DiffS8++
			}
		}
		m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: ts, End: ts + 60, Addr: to}, pfx, &tab)
		ts += 60
		prev = to
	}
	if m.Prefix != want {
		t.Fatalf("machine row %+v, want %+v", m.Prefix, want)
	}
	if want.Unrouted == 0 || want.DiffBGP == 0 || want.DiffS16 == want.DiffBGP || want.DiffS8 == want.DiffS16 {
		t.Fatalf("row %+v does not exercise every counter", want)
	}
	cells := tab.AppendCells(nil)
	var sum core.PrefixChangeRow
	sum.Accumulate(tab.Outside())
	for i, c := range cells {
		if i > 0 && cells[i-1].Day >= c.Day {
			t.Fatalf("churn days not strictly ascending: %d then %d", cells[i-1].Day, c.Day)
		}
		sum.Accumulate(c.Row)
	}
	if sum != want {
		t.Fatalf("churn windows sum to %+v, probe row is %+v", sum, want)
	}
	if tab.Outside().Changes == 0 {
		t.Fatalf("expected pre-study changes in the outside window")
	}

	// Sparse round-trip: restore into a fresh table, fold both into
	// day-keyed maps, compare.
	var restored core.ChurnTable
	if err := restored.Restore(cells, tab.Outside()); err != nil {
		t.Fatal(err)
	}
	got := make(map[int]core.PrefixChangeRow)
	restored.AccumulateInto(got)
	ref := make(map[int]core.PrefixChangeRow)
	tab.AccumulateInto(ref)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("restored table folds to %v, want %v", got, ref)
	}
}
