package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/sim"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
)

// resultBytes canonicalises a live-analysis result for byte comparison.
// Result is all plain values and deterministically ordered slices, so
// byte equality of the JSON means full value equality.
func resultBytes(t testing.TB, r *liveanalysis.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireAnalysisEquals asserts the streaming result matches the batch
// oracle over the same records, byte for byte.
func requireAnalysisEquals(t *testing.T, label string, got *liveanalysis.Result, ds *atlasdata.Dataset) {
	t.Helper()
	want := liveanalysis.FromBatch(ds, liveanalysis.Options{})
	gb, wb := resultBytes(t, got), resultBytes(t, want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: streaming analysis differs from batch\n got: %.300s\nwant: %.300s", label, gb, wb)
	}
}

// teeSink forwards records to an analysis-enabled ingester while
// building the same prefix as a Dataset, so any barrier mid-replay can
// be checked against the batch oracle over exactly the records the
// stream has consumed.
type teeSink struct {
	ing  *stream.Ingester
	ds   *atlasdata.Dataset
	lits *atlasdata.V6Interner // interns in ds.V6
	n    int
	at   func(n int)
}

func (s *teeSink) tick() { s.n++; s.at(s.n) }

func (s *teeSink) Meta(m atlasdata.ProbeMeta) error {
	if err := s.ing.Meta(m); err != nil {
		return err
	}
	s.ds.Probes[m.ID] = m
	s.tick()
	return nil
}

func (s *teeSink) ConnLog(e atlasdata.ConnLogEntry) error {
	if err := s.ing.ConnLog(e); err != nil {
		return err
	}
	if s.lits == nil {
		s.lits = atlasdata.NewV6Interner(&s.ds.V6)
	}
	s.ds.ConnLogs[e.Probe] = append(s.ds.ConnLogs[e.Probe], e.Sample(s.lits))
	s.tick()
	return nil
}

func (s *teeSink) KRoot(k atlasdata.KRootRound) error {
	if err := s.ing.KRoot(k); err != nil {
		return err
	}
	s.ds.KRoot[k.Probe] = append(s.ds.KRoot[k.Probe], k.Sample())
	s.tick()
	return nil
}

func (s *teeSink) Uptime(u atlasdata.UptimeRecord) error {
	if err := s.ing.Uptime(u); err != nil {
		return err
	}
	s.ds.Uptime[u.Probe] = append(s.ds.Uptime[u.Probe], u.Sample())
	s.tick()
	return nil
}

// TestAnalysisReplayEquivalence is the tentpole's correctness anchor:
// across seeds and shard counts, the live analysis at every checkpoint
// barrier — one third in, two thirds in, and at end of stream — must be
// byte-identical to the batch pipeline run over exactly the records
// consumed so far.
func TestAnalysisReplayEquivalence(t *testing.T) {
	cases := []struct {
		seed   uint64
		shards int
	}{
		{seed: 3, shards: 1},
		{seed: 3, shards: 4},
		{seed: 11, shards: 1},
		{seed: 11, shards: 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed=%d/shards=%d", tc.seed, tc.shards), func(t *testing.T) {
			ds := recoverWorld(t, tc.seed)
			total := totalRecords(ds)
			barriers := map[int]bool{total / 3: true, total * 2 / 3: true}

			ing := stream.NewIngester(stream.Config{
				Shards: tc.shards, Pfx2AS: ds.Pfx2AS, Analysis: true,
			})
			tee := &teeSink{ing: ing, ds: atlasdata.NewDataset()}
			tee.ds.Pfx2AS = ds.Pfx2AS
			tee.at = func(n int) {
				if !barriers[n] {
					return
				}
				got, err := ing.Analysis()
				if err != nil {
					t.Fatal(err)
				}
				requireAnalysisEquals(t, fmt.Sprintf("barrier at record %d", n), got, tee.ds)
			}
			if err := sim.ReplayDataset(ds, tee); err != nil {
				t.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			// End of stream exercises the closed-quiescent path.
			got, err := ing.Analysis()
			if err != nil {
				t.Fatal(err)
			}
			requireAnalysisEquals(t, "end of stream", got, ds)
		})
	}
}

// TestAnalysisViewSharedWhileApplying: an analysis view shares its event
// lists with the shards' machines (core.Machine.SharedEvents). While the
// shards keep applying records — appending events and resolving open
// reboot gaps in place — a reader folds and encodes the views published
// last, over and over; each must read as it did when it was published,
// up to when the reader lets it go, two views later. Under -race this
// also checks that no shard write touches what a view holds.
func TestAnalysisViewSharedWhileApplying(t *testing.T) {
	ds := recoverWorld(t, 3)
	total := totalRecords(ds)
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: ds.Pfx2AS, Analysis: true})

	type published struct {
		view         *stream.AnalysisPeerView
		frames, fold []byte
	}
	read := func(v *stream.AnalysisPeerView) published {
		res, _ := stream.MergeAnalysisPeerViews([]*stream.AnalysisPeerView{v})
		fold, _ := json.Marshal(res) // a Result always marshals
		return published{v, stream.AppendAnalysisPeerView(nil, v), fold}
	}
	views := make(chan *stream.AnalysisPeerView)
	stop := sync.OnceFunc(func() { close(views) })
	defer stop() // a failed publish must not leave the reader spinning
	failed := make(chan error, 1)
	go func() {
		defer close(failed)
		var held []published
		check := func() bool {
			for _, p := range held {
				if again := read(p.view); !bytes.Equal(again.frames, p.frames) || !bytes.Equal(again.fold, p.fold) {
					failed <- fmt.Errorf("a view changed after it was published, at version %+v", p.view.Version)
					return false
				}
			}
			return true
		}
		for {
			select {
			case v, ok := <-views:
				if !ok || !check() {
					return
				}
				if held = append(held, read(v)); len(held) > 2 {
					held = held[1:]
				}
			default:
				if !check() {
					return
				}
			}
		}
	}()

	publish := func() {
		v, err := ing.AnalysisPeerView(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case views <- v:
		case err := <-failed:
			t.Fatal(err)
		}
	}
	// Views at every eighth of the stream, and where the machines hold
	// state a view sees and later records change: after the rounds that
	// open a loss run, which a view qualifies as a network outage while
	// the run is still open, and after each uptime record of a fresh
	// boot, whose reboot gap stays open until the probe's next round.
	sink := &openEventSink{teeSink: teeSink{ing: ing, ds: atlasdata.NewDataset()}, open: publish, lost: map[atlasdata.ProbeID]bool{}}
	sink.at = func(n int) {
		if n%(total/8) == 0 {
			publish()
		}
	}
	if err := sim.ReplayDataset(ds, sink); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ing.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	requireAnalysisEquals(t, "end of stream", got, ds)
}

// openEventSink is a teeSink that calls open after each all-lost round
// that follows a round with answers, and after each uptime record
// reporting less than an hour since boot.
type openEventSink struct {
	teeSink
	open func()
	lost map[atlasdata.ProbeID]bool // the probe's latest round was all lost
}

func (s *openEventSink) KRoot(k atlasdata.KRootRound) error {
	if err := s.teeSink.KRoot(k); err != nil {
		return err
	}
	if k.AllLost() && !s.lost[k.Probe] {
		s.open()
	}
	s.lost[k.Probe] = k.AllLost()
	return nil
}

func (s *openEventSink) Uptime(u atlasdata.UptimeRecord) error {
	if err := s.teeSink.Uptime(u); err != nil {
		return err
	}
	if u.Uptime < 3600 {
		s.open()
	}
	return nil
}

// TestAnalysisRecoverEquivalence kills an analysis-enabled durable run
// mid-stream (optionally tearing the WAL tail), recovers, resumes the
// producer from its cursors, and demands the final analysis match both
// an uninterrupted run and the batch oracle — detector state must ride
// checkpoints and WAL replay without drifting.
func TestAnalysisRecoverEquivalence(t *testing.T) {
	cases := []struct {
		seed   uint64
		shards int
		damage string
	}{
		{seed: 3, shards: 1, damage: "none"},
		{seed: 3, shards: 1, damage: "chop"},
		{seed: 11, shards: 4, damage: "none"},
		{seed: 11, shards: 4, damage: "chop"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed=%d/shards=%d/damage=%s", tc.seed, tc.shards, tc.damage), func(t *testing.T) {
			ds := recoverWorld(t, tc.seed)
			stopAt := totalRecords(ds) * 2 / 5
			dir := t.TempDir()
			cfg := durableConfig(ds, dir, tc.shards)
			cfg.Analysis = true

			// Uninterrupted in-memory reference.
			ref := stream.NewIngester(stream.Config{
				Shards: tc.shards, Pfx2AS: ds.Pfx2AS, Analysis: true,
			})
			if err := sim.ReplayDataset(ds, ref); err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Analysis()
			if err != nil {
				t.Fatal(err)
			}

			// Durable run dies ~40% in; recover, resume, finish.
			ing, _, err := stream.Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.ReplayDataset(ds, &stopAfter{ing: ing, left: stopAt}); !errors.Is(err, errStop) {
				t.Fatalf("replay ended with %v, want errStop", err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.damage != "none" {
				damageLastSegment(t, dir+"/shard-000", tc.damage)
			}
			rec, st, err := stream.Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.CheckpointProbes == 0 {
				t.Error("no probes restored from checkpoints; detector restore path not exercised")
			}
			if err := sim.ReplayDataset(ds, newSkipSink(rec)); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := rec.Analysis()
			if err != nil {
				t.Fatal(err)
			}
			gb, wb := resultBytes(t, got), resultBytes(t, want)
			if !bytes.Equal(gb, wb) {
				t.Errorf("post-recovery analysis differs from uninterrupted run\n got: %.300s\nwant: %.300s", gb, wb)
			}
			requireAnalysisEquals(t, "post-recovery vs batch", got, ds)
		})
	}
}

// TestAnalysisDisabled pins the gate: without Config.Analysis the calls
// fail with ErrAnalysisDisabled and ingest carries no detectors.
func TestAnalysisDisabled(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1})
	defer ing.Close()
	if _, err := ing.Analysis(); !errors.Is(err, stream.ErrAnalysisDisabled) {
		t.Fatalf("Analysis on a disabled ingester: %v, want ErrAnalysisDisabled", err)
	}
}

// TestAnalysisEdgeProbes hand-builds the degenerate shapes: a probe
// that never changed, a probe with exactly one change (too few closed
// durations for any periodic classification), and a probe with metadata
// but no records. The streaming result must match the batch oracle and
// the shapes must land where the paper's pipeline puts them.
func TestAnalysisEdgeProbes(t *testing.T) {
	ds := atlasdata.NewDataset()
	base := simclock.StudyStart

	// Probe 1: one IPv4 address all year — never changed, no events.
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}
	lits := atlasdata.NewV6Interner(&ds.V6)
	ds.ConnLogs[1], _ = atlasdata.ConnLogSeries(1, []atlasdata.ConnLogEntry{
		{Probe: 1, Start: base, End: base.Add(200 * simclock.Day), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.1.0.1")},
	}, lits)

	// Probe 2: exactly one change — analyzable, one churn bucket, zero
	// closed interior durations.
	ds.Probes[2] = atlasdata.ProbeMeta{ID: 2, Country: "DE", Version: atlasdata.V3, ConnectedDays: 120}
	ds.ConnLogs[2], _ = atlasdata.ConnLogSeries(2, []atlasdata.ConnLogEntry{
		{Probe: 2, Start: base, End: base.Add(60 * simclock.Day), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.2.0.1")},
		{Probe: 2, Start: base.Add(60*simclock.Day + simclock.Minute), End: base.Add(120 * simclock.Day), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.2.0.2")},
	}, lits)

	// Probe 3: registered, silent.
	ds.Probes[3] = atlasdata.ProbeMeta{ID: 3, Country: "FR", Version: atlasdata.V3, ConnectedDays: 100}

	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: ds.Pfx2AS, Analysis: true})
	if err := sim.ReplayDataset(ds, ing); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ing.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	requireAnalysisEquals(t, "edge probes", got, ds)

	if got.Probes != 1 {
		t.Errorf("analyzable probes = %d, want 1 (only the one-change probe)", got.Probes)
	}
	if got.Table7All.Changes != 1 {
		t.Errorf("Table 7 changes = %d, want 1", got.Table7All.Changes)
	}
	if len(got.Table5) != 0 {
		t.Errorf("Table 5 rows = %d, want 0 (one change yields no durations)", len(got.Table5))
	}
	if len(got.Churn) != 1 || got.Churn[0].Row.Changes != 1 {
		t.Errorf("churn = %+v, want one single-change window", got.Churn)
	}
}

// TestAnalysisEphemeralV6World turns the dual-stack knob up (the X4
// world: most probes show ephemeral IPv6 alongside IPv4): dual-stack
// probes are excluded from the paper tables but their IPv4 changes
// still count in the churn series, and the stream must agree with the
// batch oracle on both facts at every shard count.
func TestAnalysisEphemeralV6World(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 21
	cfg.Scale = 0.04
	cfg.DualStackFrac = 0.8
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := world.Dataset
	res := core.Filter(ds)
	if res.Count(core.CatDualStack) == 0 {
		t.Fatal("world has no dual-stack probes; knob ineffective")
	}

	var results [][]byte
	for _, shards := range []int{1, 4} {
		ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS, Analysis: true})
		if err := sim.ReplayDataset(ds, ing); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ing.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		requireAnalysisEquals(t, fmt.Sprintf("x4 world, %d shards", shards), got, ds)
		if got.Probes != len(res.GeoProbes) {
			t.Errorf("%d shards: analyzable probes = %d, want %d", shards, got.Probes, len(res.GeoProbes))
		}
		if len(got.Churn) == 0 {
			t.Errorf("%d shards: churn series empty despite IPv4 changes", shards)
		}
		results = append(results, resultBytes(t, got))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("analysis differs between shard counts")
	}
}

// BenchmarkLiveAnalysis measures the ingest cost of the detectors: the
// same world streamed with analysis off and on (the <5% overhead budget
// in EXPERIMENTS.md), plus the cost of one analysis fold.
func BenchmarkLiveAnalysis(b *testing.B) {
	ds := recoverWorld(b, 5)
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("ingest/analysis=%v", on), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS, Analysis: on})
				if err := sim.ReplayDataset(ds, ing); err != nil {
					b.Fatal(err)
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fold", func(b *testing.B) {
		ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS, Analysis: true})
		if err := sim.ReplayDataset(ds, ing); err != nil {
			b.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ing.Analysis(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProbeStateBytes reports what a live analysis ingester keeps
// per probe once a world is in: the seed-77, scale-0.5 world (the
// benchmark harness's) replayed into four analysis shards, then the
// live heap after a forced collection, less the live heap before the
// ingester was made (the world itself), per probe, as B/probe. ns/op
// times the replay.
func BenchmarkProbeStateBytes(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 77
	cfg.Scale = 0.5
	world, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := world.Dataset
	world = nil
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var perProbe float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS, Analysis: true})
		if err := sim.ReplayDataset(ds, ing); err != nil {
			b.Fatal(err)
		}
		ing.Snapshot() // barrier: every record is applied
		b.StopTimer()
		perProbe = float64(liveHeap()-before) / float64(len(ds.Probes))
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(perProbe, "B/probe")
}
