package stream

import (
	"context"
	"errors"
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/liveanalysis"
)

// ErrAnalysisDisabled is returned by Analysis calls when the ingester
// was built without Config.Analysis.
var ErrAnalysisDisabled = errors.New("stream: live analysis disabled (Config.Analysis)")

// analysisView is one shard's frozen contribution to a live analysis:
// the event state of its analyzable probes, shared read-only with their
// machines (core.Machine.SharedEvents), plus the merged churn counters of
// every probe it owns.
type analysisView struct {
	events []core.ProbeEvents // sorted by probe ID
	churn  map[int]core.PrefixChangeRow
	ver    Version
}

// analysisView snapshots the shard's event state. Called from the
// shard goroutine (in-band marker) or after Close (quiescent). The event
// lists are the machines' own, clipped to their length: the shard's
// later records never rewrite what the view holds, so the fold can run
// while the shard keeps applying records.
func (s *shard) analysisView() *analysisView {
	v := &analysisView{churn: make(map[int]core.PrefixChangeRow), ver: s.version()}
	// Churn is the raw operational view: every probe counts, analyzable
	// or not, as in FromBatch. The shard's shared table already holds
	// the merged counters.
	if s.churn != nil {
		s.churn.AccumulateInto(v.churn)
	}
	ids := make([]atlasdata.ProbeID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ps := s.states[id]
		// Events feed the paper tables, which exist only for probes the
		// Table 2 pipeline admits.
		if ps.hasMeta && ps.m.Category(ps.meta) == core.CatAnalyzable {
			v.events = append(v.events, ps.m.SharedEvents(ps.meta))
		}
	}
	return v
}

// Analysis computes the live paper answers — Tables 5-7, Figures 6-8,
// and the churn series — from the current stream position. Like
// Snapshot it is a consistent barrier: it reflects at least every
// record whose ingest call returned before Analysis was called.
func (in *Ingester) Analysis() (*liveanalysis.Result, error) {
	return in.AnalysisContext(context.Background())
}

// AnalysisContext is Analysis under a context: a caller blocked behind
// full shard buffers gets ctx.Err() on cancellation instead of hanging.
func (in *Ingester) AnalysisContext(ctx context.Context) (*liveanalysis.Result, error) {
	res, _, err := in.AnalysisVersioned(ctx)
	return res, err
}

// AnalysisVersioned is AnalysisContext plus the stream position the
// barrier was taken at, for the serving tier's cache keys.
func (in *Ingester) AnalysisVersioned(ctx context.Context) (*liveanalysis.Result, Version, error) {
	views, err := in.collectAnalysisViews(ctx)
	if err != nil {
		return nil, Version{}, err
	}
	res, ver := mergeAnalysis(views)
	return res, ver, nil
}

// collectAnalysisViews gathers one consistent analysisView per owned
// shard via the in-band analysis barrier (or directly once closed).
func (in *Ingester) collectAnalysisViews(ctx context.Context) ([]*analysisView, error) {
	if !in.cfg.Analysis {
		return nil, ErrAnalysisDisabled
	}
	in.mu.RLock()
	shards := in.shards
	if in.closed {
		in.mu.RUnlock()
		// Shard goroutines have exited; state is quiescent.
		views := make([]*analysisView, 0, len(shards))
		for _, s := range shards {
			views = append(views, s.analysisView())
		}
		return views, nil
	}
	// Buffered to the full shard count so markers already sent keep a
	// reply slot even if the collection is abandoned on cancellation.
	ch := make(chan *analysisView, len(shards))
	for _, s := range shards {
		select {
		case s.in <- record{kind: kindAnalysis, analysis: ch}:
		case <-ctx.Done():
			in.mu.RUnlock()
			return nil, ctx.Err()
		}
	}
	in.mu.RUnlock()
	views := make([]*analysisView, 0, len(shards))
	for range shards {
		select {
		case v := <-ch:
			views = append(views, v)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return views, nil
}

// mergeAnalysis combines the shard contributions — events re-sorted
// into global probe-ID order (the batch pipeline's probe discipline),
// churn counters summed — and runs the query-time fold.
func mergeAnalysis(views []*analysisView) (*liveanalysis.Result, Version) {
	var events []core.ProbeEvents
	var ver Version
	churn := make(map[int]core.PrefixChangeRow)
	for _, v := range views {
		events = append(events, v.events...)
		ver.add(v.ver)
		for day, row := range v.churn {
			r := churn[day]
			r.Accumulate(row)
			churn[day] = r
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Probe < events[j].Probe })
	return liveanalysis.Compute(events, churn, liveanalysis.Options{}), ver
}
