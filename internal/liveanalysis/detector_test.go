package liveanalysis

import (
	"math/rand"
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// uptimeFeeder mirrors the stream ingester's incremental reboot
// detection (the DetectReboots recurrence): feed it uptime records in
// time order and it drives the detector's OnReboot/OnUptime hooks.
type uptimeFeeder struct {
	det      *Detector
	probe    atlasdata.ProbeID
	prevBoot simclock.Time
	seen     bool
}

func (f *uptimeFeeder) onUptime(u atlasdata.UptimeRecord) {
	boot := u.Timestamp.Add(-simclock.Duration(u.Uptime))
	if f.seen && boot.Sub(f.prevBoot) > core.BootSlack {
		f.det.OnReboot(core.Reboot{Probe: f.probe, At: boot})
	}
	if !f.seen || boot.After(f.prevBoot) {
		f.prevBoot = boot
	}
	f.seen = true
	f.det.OnUptime(u.Timestamp)
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

// TestDetectorMatchesBatchResolution replays merged round/uptime
// timelines through the detector and checks, at every barrier, that its
// reboots and resolved gaps equal the batch primitives run over the
// records seen so far — including while the watermark pruning is
// actively shrinking the round deque, and through the final
// power-outage qualification.
func TestDetectorMatchesBatchResolution(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		probe := atlasdata.ProbeID(1000 + seed)
		rounds, uptime := genTimeline(rng, probe)
		if len(uptime) < 10 {
			t.Fatalf("seed %d: degenerate timeline", seed)
		}

		det := NewDetector()
		feeder := &uptimeFeeder{det: det, probe: probe}
		ri, ui := 0, 0
		step := 0
		maxDeque := 0
		for ri < len(rounds) || ui < len(uptime) {
			if ui >= len(uptime) || (ri < len(rounds) && rounds[ri].Timestamp.Before(uptime[ui].Timestamp)) {
				det.OnRound(rounds[ri].Timestamp)
				ri++
			} else {
				feeder.onUptime(uptime[ui])
				ui++
			}
			if len(det.Rounds) > maxDeque {
				maxDeque = len(det.Rounds)
			}
			step++
			if step%97 != 0 && ri < len(rounds) && ui < len(uptime) {
				continue
			}
			wantReboots := core.DetectReboots(uptime[:ui])
			if !reflect.DeepEqual(det.Reboots, wantReboots) {
				t.Fatalf("seed %d step %d: reboots diverge: got %v want %v", seed, step, det.Reboots, wantReboots)
			}
			wantGaps := core.ResolveRebootGaps(wantReboots, rounds[:ri])
			got := det.RebootGaps
			if len(got) == 0 {
				got = nil
			}
			if len(wantGaps) == 0 {
				wantGaps = nil
			}
			if !reflect.DeepEqual(got, wantGaps) {
				t.Fatalf("seed %d step %d: gaps diverge:\ngot  %v\nwant %v", seed, step, got, wantGaps)
			}
			wantPow := core.DetectPowerOutages(wantReboots, rounds[:ri])
			gotPow := core.PowerOutagesFrom(det.Reboots, det.RebootGaps, det.Reboots)
			if !reflect.DeepEqual(gotPow, wantPow) {
				t.Fatalf("seed %d step %d: power outages diverge", seed, step)
			}
		}
		// The pruning must actually bound the deque: rounds come every
		// ~4 minutes, uptime reports every ~15-60, so the retained
		// window is a handful of rounds, never the full history.
		if maxDeque >= len(rounds)/2 {
			t.Fatalf("seed %d: round deque grew to %d of %d rounds; pruning ineffective", seed, maxDeque, len(rounds))
		}
	}
}

// TestDetectorRestore round-trips the exported state mid-stream into a
// fresh detector (as checkpoint recovery does), continues both on the
// same suffix, and demands identical final state — pinning that Restore
// rebuilds everything the hooks need.
func TestDetectorRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	probe := atlasdata.ProbeID(7)
	rounds, uptime := genTimeline(rng, probe)

	det := NewDetector()
	feeder := &uptimeFeeder{det: det, probe: probe}
	type ev struct {
		round bool
		r     atlasdata.KRootRound
		u     atlasdata.UptimeRecord
	}
	var evs []ev
	ri, ui := 0, 0
	for ri < len(rounds) || ui < len(uptime) {
		if ui >= len(uptime) || (ri < len(rounds) && rounds[ri].Timestamp.Before(uptime[ui].Timestamp)) {
			evs = append(evs, ev{round: true, r: rounds[ri]})
			ri++
		} else {
			evs = append(evs, ev{u: uptime[ui]})
			ui++
		}
	}
	cut := len(evs) * 2 / 5
	apply := func(d *Detector, f *uptimeFeeder, e ev) {
		if e.round {
			d.OnRound(e.r.Timestamp)
		} else {
			f.onUptime(e.u)
		}
	}
	for _, e := range evs[:cut] {
		apply(det, feeder, e)
	}

	// Copy only the exported fields — what a checkpoint carries.
	restored := &Detector{
		RawHours:   append([]float64(nil), det.RawHours...),
		Gaps:       append([]GapEvent(nil), det.Gaps...),
		Networks:   append([]core.NetworkOutage(nil), det.Networks...),
		Reboots:    append([]core.Reboot(nil), det.Reboots...),
		RebootGaps: append([]core.RebootGap(nil), det.RebootGaps...),
		Prefix:     det.Prefix,
		Rounds:     append([]simclock.Time(nil), det.Rounds...),
		LastUptime: det.LastUptime,
	}
	restored.Restore()
	// The feeder's recurrence state is rebuilt the same way the stream
	// restores it from its own checkpointed fields.
	feeder2 := &uptimeFeeder{det: restored, probe: probe, prevBoot: feeder.prevBoot, seen: feeder.seen}

	for _, e := range evs[cut:] {
		apply(det, feeder, e)
		apply(restored, feeder2, e)
	}
	if !reflect.DeepEqual(det.Reboots, restored.Reboots) ||
		!reflect.DeepEqual(det.RebootGaps, restored.RebootGaps) ||
		!reflect.DeepEqual(det.Rounds, restored.Rounds) {
		t.Fatalf("restored detector diverged from uninterrupted one")
	}
}

// TestChurnTablePartitionsPrefix feeds random address changes through
// both a detector (the per-probe Table 7 row) and a churn table (the
// shared day buckets) and checks that the buckets sum back to the
// probe's row — every change lands in exactly one window — and that the
// table round-trips through its sparse checkpoint form.
func TestChurnTablePartitionsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	det := NewDetector()
	var tab ChurnTable
	// The fused ingest-path form must stay equivalent to the two
	// separate calls; run it in parallel on its own pair and compare.
	fused := NewDetector()
	var fusedTab ChurnTable
	ts := simclock.StudyStart.Add(-simclock.Day)
	for i := 0; i < 500; i++ {
		ts = ts.Add(simclock.Duration(rng.Intn(2*86400)) * simclock.Second)
		from := ip4.FromOctets(byte(rng.Intn(200)+1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(254)+1))
		to := ip4.FromOctets(byte(rng.Intn(200)+1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(254)+1))
		ch := core.AddressChange{From: from, To: to, PrevEnd: ts, NextStart: ts.Add(simclock.Minute)}
		okFrom := rng.Intn(10) > 0
		okTo := rng.Intn(10) > 0
		det.OnChange(ch, from.Slash24(), to.Slash24(), okFrom, okTo)
		tab.Add(ch, from.Slash24(), to.Slash24(), okFrom, okTo)
		fused.OnChangeDual(fusedTab.Row(ch.NextStart), from, to, from.Slash24(), to.Slash24(), okFrom, okTo)
	}
	if fused.Prefix != det.Prefix {
		t.Fatalf("fused probe row %+v, separate calls give %+v", fused.Prefix, det.Prefix)
	}
	if !reflect.DeepEqual(fusedTab.AppendCells(nil), tab.AppendCells(nil)) || fusedTab.Outside() != tab.Outside() {
		t.Fatalf("fused churn table diverges from separate calls")
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
	want := det.Prefix
	want.ASN = sum.ASN
	if sum != want {
		t.Fatalf("churn windows sum to %+v, probe row is %+v", sum, det.Prefix)
	}
	if tab.Outside().Changes == 0 {
		t.Fatalf("expected pre-study changes in the outside window")
	}
	if det.Prefix.Changes != 500 {
		t.Fatalf("expected 500 changes, got %d", det.Prefix.Changes)
	}

	// Sparse round-trip: restore into a fresh table, fold both into
	// day-keyed maps, compare.
	var restored ChurnTable
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
