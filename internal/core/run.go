package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/stats"
)

// This file holds Run, the one composition of a Report: three steps,
// the first two fanning their probes out over a bounded worker pool.
// Per-probe results are written into indexed slots and read back in
// ascending probe-ID order, and the cross-probe tables come from the
// same fold the live analysis runs (FoldEvents), so the Report is
// identical whatever the pool size: only Report.Metrics (wall times,
// worker count) differs. Parallelism 1 is the serial run.

// The steps of a Run, as Report.Metrics names them.
const (
	// StepCategories settles every probe's Table 2 category from its
	// connection log alone.
	StepCategories = "categories"
	// StepDetect runs each analyzable probe's records through Detect,
	// alongside the daily churn and IPv6 analyses.
	StepDetect = "detect"
	// StepFold runs the cross-probe fold and the batch-only figures.
	StepFold = "fold"
)

// StageMetric records one step's execution: wall time and how many
// probes it processed.
type StageMetric struct {
	Stage   string        `json:"stage"`
	Wall    time.Duration `json:"wall_ns"`
	Records int           `json:"records"`
}

// RunMetrics describes how a report was computed: the worker-pool size
// and one entry per step, in run order. Metrics are observability, not
// results — two reports over the same dataset are considered equal
// regardless of Metrics.
type RunMetrics struct {
	Parallelism int           `json:"parallelism"`
	Stages      []StageMetric `json:"stages"`
}

// Stage returns the metric for a named step, or nil if there is none.
func (m *RunMetrics) Stage(name string) *StageMetric {
	if m == nil {
		return nil
	}
	for i := range m.Stages {
		if m.Stages[i].Stage == name {
			return &m.Stages[i]
		}
	}
	return nil
}

// Config tunes a run.
type Config struct {
	// Parallelism bounds the worker pool: at most this many per-probe
	// tasks execute at once. Zero or negative means GOMAXPROCS.
	Parallelism int
	// Options are the analysis options.
	Options Options
}

// withDefaults returns a copy of o with unset fields replaced by the
// paper's defaults (TopASes 5, Figure 3 "DE" at 3 years).
func (o Options) withDefaults() Options {
	o.TopASes = topASesOrDefault(o.TopASes)
	if o.Figure3Country == "" {
		o.Figure3Country = "DE"
	}
	if o.Figure3MinYears == 0 {
		o.Figure3MinYears = 3
	}
	return o
}

// Run computes the Report of a dataset. It returns ctx.Err() when the
// context is cancelled; cancellation is observed between steps and
// between per-probe tasks. On success the Report carries Metrics
// describing the run.
func Run(ctx context.Context, ds *atlasdata.Dataset, cfg Config) (*Report, error) {
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := cfg.Options.withDefaults()
	rep := &Report{Metrics: &RunMetrics{Parallelism: workers}}
	step := func(name string, records int, fn func() error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		rep.Metrics.Stages = append(rep.Metrics.Stages, StageMetric{Stage: name, Wall: time.Since(start), Records: records})
		return nil
	}

	ids := ds.ProbeIDs()
	cats := make([]Category, len(ids))
	err := step(StepCategories, len(ids), func() error {
		return forEach(ctx, workers, len(ids), func(i int) {
			cats[i] = settle(ds, ds.Probes[ids[i]])
		})
	})
	if err != nil {
		return nil, err
	}
	var geo []atlasdata.ProbeID
	for i, id := range ids {
		if cats[i] == CatAnalyzable {
			geo = append(geo, id)
		}
	}

	// The churn and IPv6 analyses read only the dataset and the
	// analyzable set, so they take the first two of the pool's tasks.
	views := make([]*ProbeView, len(geo))
	events := make([]ProbeEvents, len(geo))
	ttfs := make([]stats.Weighted, len(geo))
	err = step(StepDetect, len(geo), func() error {
		return forEach(ctx, workers, len(geo)+2, func(i int) {
			switch i {
			case 0:
				rep.ChurnMean = MeanTurnover(DailyChurn(ds, geo))
			case 1:
				rep.V6 = AnalyzeV6(ds)
			default:
				views[i-2], events[i-2], ttfs[i-2] = analyzeProbe(ds, ds.Probes[geo[i-2]])
			}
		})
	})
	if err != nil {
		return nil, err
	}

	err = step(StepFold, len(geo), func() error {
		res := assembleFilter(ids, cats, views)
		rep.Filter = res
		rep.Table2 = BuildTable2(res)

		f := FoldEvents(events, opts.TopASes, true)
		rep.Outage = f.Outage
		rep.Figure6RebootsPerDay = f.Outage.RebootsPerDay
		rep.Figure6FirmwareDays = f.Outage.FirmwareDays
		rep.Table5, rep.Table5All = f.Table5, f.Table5All
		rep.Figure7, rep.Figure8 = f.Figure7, f.Figure8
		rep.Table6 = f.Table6
		rep.Table7All, rep.Table7ByAS = f.Table7All, f.Table7ByAS

		ttfOf := make(map[atlasdata.ProbeID]*stats.Weighted, len(geo))
		for i, id := range geo {
			ttfOf[id] = &ttfs[i]
		}
		rep.Figure1 = BuildFigure1(res, ttfOf)
		rep.Figure2 = BuildFigure2(res, ttfOf, f.Groups, opts.TopASes)
		rep.Figure3 = BuildFigure3(res, ttfOf, f.Groups, opts.Figure3Country, opts.Figure3MinYears)
		rep.HourHists = BuildHourHists(res, f.Groups, rep.Table5)
		rep.Figure9 = BuildFigure9(f.Outage, res, f.Groups, rep.Table6, opts.Figure9ASNs)
		rep.LinkTypes = LinkTypesByAS(f.Outage, res)
		rep.AdminEvents = DetectAdminRenumbering(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// forEach runs fn(0) to fn(n-1) on at most workers goroutines, each
// taking the next index when it finishes one. Cancellation is observed
// between tasks; forEach returns ctx.Err().
func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
