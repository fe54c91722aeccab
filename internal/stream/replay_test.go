package stream_test

import (
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
)

// TestReplayEquivalence streams a seed-77 paper-scale world through the
// ingester and checks that the snapshot reproduces the batch pipeline's
// Table 2 classification, per-AS address-change counts and per-AS
// total-time-fraction tallies exactly — the subsystem's core contract.
func TestReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world generation in -short mode")
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = 77
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := world.Dataset

	ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS})
	if err := sim.ReplayDataset(ds, ing); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ing.Snapshot()

	res := core.Filter(ds)

	// Record accounting: everything valid and in order, nothing rejected.
	var wantConns, wantKRoot, wantUptime int64
	for id := range ds.Probes {
		wantConns += int64(len(ds.ConnLogs[id]))
		wantKRoot += int64(len(ds.KRoot[id]))
		wantUptime += int64(len(ds.Uptime[id]))
	}
	if snap.Records.Rejected != 0 {
		t.Errorf("rejected %d records from a valid dataset", snap.Records.Rejected)
	}
	if snap.Records.Meta != int64(len(ds.Probes)) || snap.Records.ConnLogs != wantConns ||
		snap.Records.KRoot != wantKRoot || snap.Records.Uptime != wantUptime {
		t.Errorf("record counts = %+v, want %d/%d/%d/%d", snap.Records,
			len(ds.Probes), wantConns, wantKRoot, wantUptime)
	}
	if snap.Probes != len(ds.Probes) || snap.Unregistered != 0 {
		t.Errorf("probes = %d (unregistered %d), want %d (0)",
			snap.Probes, snap.Unregistered, len(ds.Probes))
	}

	// Table 2: the live classification must match the batch filter.
	for _, cat := range core.Categories {
		if got, want := snap.Categories[cat], res.Count(cat); got != want {
			t.Errorf("category %q: stream %d, batch %d", cat, got, want)
		}
	}
	if snap.GeoProbes != len(res.GeoProbes) || snap.ASProbes != len(res.ASProbes) {
		t.Errorf("geo/as probes = %d/%d, want %d/%d",
			snap.GeoProbes, snap.ASProbes, len(res.GeoProbes), len(res.ASProbes))
	}

	// Per-AS: same AS set, same probe membership counts, identical change
	// counts and bitwise-identical TTF mass at every duration value.
	byAS := core.ByAS(res)
	ttfs := core.ProbeTTFs(res)
	if got, want := len(snap.PerAS), len(byAS); got != want {
		t.Fatalf("AS count: stream %d, batch %d", got, want)
	}
	for asn, ids := range byAS {
		agg := snap.AS(asn)
		if agg == nil {
			t.Errorf("AS%d missing from snapshot", asn)
			continue
		}
		if agg.Probes != len(ids) {
			t.Errorf("AS%d probes: stream %d, batch %d", asn, agg.Probes, len(ids))
		}
		var wantChanges int64
		for _, id := range ids {
			wantChanges += int64(len(res.Views[id].Changes))
		}
		if agg.Changes != wantChanges {
			t.Errorf("AS%d changes: stream %d, batch %d", asn, agg.Changes, wantChanges)
		}
		want := core.GroupTTF(ttfs, ids)
		got := agg.TTF
		wantVals, gotVals := want.Values(), got.Values()
		if len(wantVals) != len(gotVals) {
			t.Errorf("AS%d TTF: stream has %d duration values, batch %d",
				asn, len(gotVals), len(wantVals))
			continue
		}
		for i, v := range wantVals {
			if gotVals[i] != v {
				t.Errorf("AS%d TTF value %d: stream %v, batch %v", asn, i, gotVals[i], v)
				continue
			}
			// Masses accumulate in the same per-probe, per-duration order
			// in both pipelines, so they must be bitwise equal.
			if gm, wm := got.MassOf(v), want.MassOf(v); gm != wm {
				t.Errorf("AS%d TTF mass at %vh: stream %v, batch %v", asn, v, gm, wm)
			}
		}
	}

	// Event detection: the shards' reboot and closed-outage counts
	// must match core.Detect's over each probe's whole record stream
	// (a loss run still open at the end is not counted).
	var wantReboots, wantOutages int64
	for id := range ds.Probes {
		m := core.Detect(ds, id, nil)
		wantReboots += m.RebootCount
		wantOutages += m.NetworkCount
	}
	if snap.Reboots != wantReboots {
		t.Errorf("reboots: stream %d, batch %d", snap.Reboots, wantReboots)
	}
	if snap.NetworkOutages != wantOutages {
		t.Errorf("network outages: stream %d, batch (closed runs) %d",
			snap.NetworkOutages, wantOutages)
	}
}

// TestGenerateToMatchesReplay checks the generator's incremental
// emission path: driving an ingester from GenerateTo must leave it in
// the same state as replaying the finished dataset.
func TestGenerateToMatchesReplay(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 9
	cfg.Scale = 0.05

	// GenerateTo cannot know the pfx2as table before generation builds
	// it, so compare the AS-blind states: classification counts and
	// record accounting still must agree.
	live := stream.NewIngester(stream.Config{Shards: 3})
	world, err := sim.GenerateTo(cfg, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := stream.NewIngester(stream.Config{Shards: 3})
	if err := sim.ReplayDataset(world.Dataset, replayed); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := live.Snapshot(), replayed.Snapshot()
	if a.Records != b.Records {
		t.Errorf("records: live %+v, replay %+v", a.Records, b.Records)
	}
	if a.Probes != b.Probes || a.Changes != b.Changes ||
		a.NetworkOutages != b.NetworkOutages || a.Reboots != b.Reboots ||
		a.OutageLinkedChanges != b.OutageLinkedChanges || a.OpenLossRuns != b.OpenLossRuns {
		t.Errorf("aggregates differ: live %+v, replay %+v", a, b)
	}
	for _, cat := range core.Categories {
		if a.Categories[cat] != b.Categories[cat] {
			t.Errorf("category %q: live %d, replay %d", cat, a.Categories[cat], b.Categories[cat])
		}
	}
}

// sinkFunc adapts callbacks to sim.RecordSink for test doubles.
type sinkFunc struct {
	meta func(atlasdata.ProbeMeta) error
	conn func(atlasdata.ConnLogEntry) error
	kr   func(atlasdata.KRootRound) error
	up   func(atlasdata.UptimeRecord) error
}

func (s sinkFunc) Meta(m atlasdata.ProbeMeta) error       { return s.meta(m) }
func (s sinkFunc) ConnLog(e atlasdata.ConnLogEntry) error { return s.conn(e) }
func (s sinkFunc) KRoot(k atlasdata.KRootRound) error     { return s.kr(k) }
func (s sinkFunc) Uptime(u atlasdata.UptimeRecord) error  { return s.up(u) }

// TestGenerateToEmissionOrder checks the merged per-probe stream is
// time-ordered per record kind and grouped by probe.
func TestGenerateToEmissionOrder(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 4
	cfg.Scale = 0.03

	lastConn := map[atlasdata.ProbeID]atlasdata.ConnLogEntry{}
	lastKR := map[atlasdata.ProbeID]atlasdata.KRootRound{}
	lastUp := map[atlasdata.ProbeID]atlasdata.UptimeRecord{}
	metaSeen := map[atlasdata.ProbeID]bool{}
	var order []atlasdata.ProbeID

	sink := sinkFunc{
		meta: func(m atlasdata.ProbeMeta) error {
			metaSeen[m.ID] = true
			order = append(order, m.ID)
			return nil
		},
		conn: func(e atlasdata.ConnLogEntry) error {
			if !metaSeen[e.Probe] {
				t.Errorf("probe %d records before metadata", e.Probe)
			}
			if prev, ok := lastConn[e.Probe]; ok && e.Start.Before(prev.Start) {
				t.Errorf("probe %d conn entries out of order", e.Probe)
			}
			lastConn[e.Probe] = e
			return nil
		},
		kr: func(k atlasdata.KRootRound) error {
			if prev, ok := lastKR[k.Probe]; ok && k.Timestamp.Before(prev.Timestamp) {
				t.Errorf("probe %d kroot rounds out of order", k.Probe)
			}
			lastKR[k.Probe] = k
			return nil
		},
		up: func(u atlasdata.UptimeRecord) error {
			if prev, ok := lastUp[u.Probe]; ok && u.Timestamp.Before(prev.Timestamp) {
				t.Errorf("probe %d uptime records out of order", u.Probe)
			}
			lastUp[u.Probe] = u
			return nil
		},
	}
	world, err := sim.GenerateTo(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(world.Dataset.Probes) {
		t.Errorf("emitted %d probes, dataset has %d", len(order), len(world.Dataset.Probes))
	}
}
