package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/stats"
)

// This file holds Run, the one composition of a Report: a staged DAG
// on a bounded worker pool. Each stage is an explicit node whose
// dependencies follow the data flow; independent stages run
// concurrently, and per-probe stages fan their probes out across the
// pool. Per-probe results are written into indexed slots, then
// assembled in ascending probe-ID order and aggregated through the same
// seams the streaming fold (liveanalysis.Compute) uses, so the Report
// is identical whatever the schedule: only Report.Metrics (wall times,
// worker count) differs. Parallelism 1 is the serial run.

// Stage names one node of the analysis DAG. Filtering feeds everything;
// the TTF and periodic classifications feed the figures; the outage
// pipeline feeds the conditional-probability figures and the link-type
// inference.
type Stage string

// The analysis stages, in canonical (topological) order.
const (
	// StageFilter runs the Table 2 probe-filtering pipeline.
	StageFilter Stage = "filter"
	// StageTTF computes per-probe total-time-fraction distributions.
	StageTTF Stage = "ttf"
	// StagePeriodic classifies periodic probes and builds Table 5.
	StagePeriodic Stage = "periodic"
	// StageOutage runs the §5 outage pipeline (reboots, firmware,
	// network/power outages, gap association) and Figure 6.
	StageOutage Stage = "outage"
	// StagePac builds the P(ac|·) artefacts: Figures 7-9 and Table 6.
	StagePac Stage = "pac"
	// StageLinkType infers per-AS access technology from outage response.
	StageLinkType Stage = "linktype"
	// StagePrefix computes Table 7's prefix-crossing counters.
	StagePrefix Stage = "prefix"
	// StageFigures builds the TTF figures (1-3) and the hour histograms
	// (Figures 4/5).
	StageFigures Stage = "figures"
	// StageExtensions runs the beyond-the-paper analyses: administrative
	// renumbering, churn turnover, IPv6 ephemerality.
	StageExtensions Stage = "extensions"
)

// AllStages lists every stage in canonical order. Run executes the
// stages in dependency order regardless of slice order; this order is
// also how Report.Metrics lists executed stages.
var AllStages = []Stage{
	StageFilter, StageTTF, StagePeriodic, StageOutage, StagePac,
	StageLinkType, StagePrefix, StageFigures, StageExtensions,
}

// stageDeps is the dependency edge set of the DAG.
var stageDeps = map[Stage][]Stage{
	StageFilter:     nil,
	StageTTF:        {StageFilter},
	StagePeriodic:   {StageFilter},
	StageOutage:     {StageFilter},
	StagePac:        {StageOutage},
	StageLinkType:   {StageOutage},
	StagePrefix:     {StageFilter},
	StageFigures:    {StageTTF, StagePeriodic},
	StageExtensions: {StageFilter},
}

// Closure expands a stage selection to include every transitive
// dependency, returned in canonical order. A nil or empty selection
// means all stages. Unknown stage names are an error.
func Closure(stages []Stage) ([]Stage, error) {
	if len(stages) == 0 {
		out := make([]Stage, len(AllStages))
		copy(out, AllStages)
		return out, nil
	}
	want := make(map[Stage]bool)
	var add func(s Stage) error
	add = func(s Stage) error {
		deps, ok := stageDeps[s]
		if !ok {
			return fmt.Errorf("core: unknown stage %q", s)
		}
		if want[s] {
			return nil
		}
		want[s] = true
		for _, d := range deps {
			if err := add(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range stages {
		if err := add(s); err != nil {
			return nil, err
		}
	}
	var out []Stage
	for _, s := range AllStages {
		if want[s] {
			out = append(out, s)
		}
	}
	return out, nil
}

// ParseStages parses a comma-separated stage list, as accepted by
// churnctl's -stages flag. Empty input and "all" select every stage.
func ParseStages(s string) ([]Stage, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []Stage
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		st := Stage(part)
		if _, ok := stageDeps[st]; !ok {
			return nil, fmt.Errorf("core: unknown stage %q (have %v)", part, AllStages)
		}
		out = append(out, st)
	}
	return out, nil
}

// Config tunes a run.
type Config struct {
	// Parallelism bounds the worker pool shared by all stages; at most
	// this many per-probe tasks execute at once, run-wide. Zero or
	// negative means GOMAXPROCS.
	Parallelism int
	// Stages selects which stages to run; dependencies are added
	// automatically (Closure). Nil means all. Report fields owned by
	// unselected stages stay zero.
	Stages []Stage
	// Options are the analysis options.
	Options Options
}

// runState carries the DAG's intermediate artefacts between stages.
// Each field is written by exactly one stage and read only by stages
// that declare it as a dependency; the scheduler's done-channel
// synchronisation orders the accesses.
type runState struct {
	ds      *atlasdata.Dataset
	opts    Options
	rep     *Report
	sem     chan struct{} // run-wide worker pool
	workers int

	res      *FilterResult
	byAS     map[uint32][]atlasdata.ProbeID
	ttfs     map[atlasdata.ProbeID]*stats.Weighted
	periodic map[atlasdata.ProbeID]PeriodicProbe
}

// stageFunc runs one stage and reports how many records it processed.
type stageFunc func(ctx context.Context, st *runState) (records int, err error)

var stageFuncs = map[Stage]stageFunc{
	StageFilter:     stageFilter,
	StageTTF:        stageTTF,
	StagePeriodic:   stagePeriodic,
	StageOutage:     stageOutage,
	StagePac:        stagePac,
	StageLinkType:   stageLinkType,
	StagePrefix:     stagePrefix,
	StageFigures:    stageFigures,
	StageExtensions: stageExtensions,
}

// Run executes the selected stages over a dataset. It returns the first
// stage error, or ctx.Err() when the context is cancelled; cancellation
// is observed at stage boundaries and between per-probe tasks, and
// in-flight stages stop before the next task. On success the Report
// carries Metrics describing the run.
func Run(ctx context.Context, ds *atlasdata.Dataset, cfg Config) (*Report, error) {
	stages, err := Closure(cfg.Stages)
	if err != nil {
		return nil, err
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &runState{
		ds:      ds,
		opts:    cfg.Options.withDefaults(),
		rep:     &Report{},
		sem:     make(chan struct{}, workers),
		workers: workers,
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	done := make(map[Stage]chan struct{}, len(stages))
	for _, s := range stages {
		done[s] = make(chan struct{})
	}
	var (
		mu       sync.Mutex
		firstErr error
		metrics  = make(map[Stage]StageMetric, len(stages))
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for _, s := range stages {
		wg.Add(1)
		go func(s Stage) {
			defer wg.Done()
			defer close(done[s])
			for _, dep := range stageDeps[s] {
				select {
				case <-done[dep]:
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
			}
			// A dependency may close its channel after failing; check the
			// run is still live before starting.
			if ctx.Err() != nil {
				fail(ctx.Err())
				return
			}
			start := time.Now()
			records, err := stageFuncs[s](ctx, st)
			if err != nil {
				fail(err)
				return
			}
			mu.Lock()
			metrics[s] = StageMetric{
				Stage:   string(s),
				Wall:    time.Since(start),
				Records: records,
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	rm := &RunMetrics{Parallelism: workers}
	for _, s := range stages {
		rm.Stages = append(rm.Stages, metrics[s])
	}
	st.rep.Metrics = rm
	return st.rep, nil
}

// forEach fans n index-addressed tasks out over the run-wide worker
// pool. Each task acquires a pool slot, so concurrent stages together
// never exceed cfg.Parallelism running tasks. The first task error (or
// the context error) stops the remaining tasks and is returned.
func (st *runState) forEach(ctx context.Context, n int, fn func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	k := st.workers
	if k > n {
		k = n
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				select {
				case st.sem <- struct{}{}:
				case <-ctx.Done():
					fail(ctx.Err())
					return
				}
				err := fn(i)
				<-st.sem
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// stageFilter classifies every probe (fan-out) and assembles the
// FilterResult, Table 2, and the per-AS grouping shared downstream.
func stageFilter(ctx context.Context, st *runState) (int, error) {
	ids := st.ds.ProbeIDs()
	cats := make([]Category, len(ids))
	views := make([]*ProbeView, len(ids))
	err := st.forEach(ctx, len(ids), func(i int) error {
		cats[i], views[i] = classify(st.ds, st.ds.Probes[ids[i]])
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.res = AssembleFilter(ids, cats, views)
	st.rep.Filter = st.res
	st.rep.Table2 = BuildTable2(st.res)
	st.byAS = ByAS(st.res)
	return len(ids), nil
}

// stageTTF computes each analyzable probe's TTF distribution (fan-out).
func stageTTF(ctx context.Context, st *runState) (int, error) {
	ids := st.res.GeoProbes
	out := make([]*stats.Weighted, len(ids))
	err := st.forEach(ctx, len(ids), func(i int) error {
		out[i] = TTF(V4Durations(st.res.Views[ids[i]].Entries))
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.ttfs = make(map[atlasdata.ProbeID]*stats.Weighted, len(ids))
	for i, id := range ids {
		st.ttfs[id] = out[i]
	}
	return len(ids), nil
}

// stagePeriodic classifies each probe's periodicity (fan-out) and
// aggregates Table 5 and its All rows.
func stagePeriodic(ctx context.Context, st *runState) (int, error) {
	ids := st.res.GeoProbes
	type slot struct {
		pp PeriodicProbe
		ok bool
	}
	out := make([]slot, len(ids))
	err := st.forEach(ctx, len(ids), func(i int) error {
		out[i].pp, out[i].ok = ClassifyPeriodic(V4Durations(st.res.Views[ids[i]].Entries))
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.periodic = make(map[atlasdata.ProbeID]PeriodicProbe)
	for i, id := range ids {
		if out[i].ok {
			st.periodic[id] = out[i].pp
		}
	}
	st.rep.Table5 = PeriodicRowsOver(st.byAS, st.periodic)
	st.rep.Table5All = []ASPeriodicRow{
		PeriodicAllOver(st.res.ASProbes, st.periodic, 24),
		PeriodicAllOver(st.res.ASProbes, st.periodic, 168),
	}
	return len(ids), nil
}

// stageOutage runs the two outage passes: reboot detection per probe
// (fan-out), the global firmware profile, then per-probe gap
// classification (fan-out).
func stageOutage(ctx context.Context, st *runState) (int, error) {
	ids := st.res.GeoProbes
	rb := make([][]Reboot, len(ids))
	err := st.forEach(ctx, len(ids), func(i int) error {
		rb[i] = DetectReboots(st.ds.Uptime[ids[i]])
		return nil
	})
	if err != nil {
		return 0, err
	}
	reboots := make(map[atlasdata.ProbeID][]Reboot, len(ids))
	for i, id := range ids {
		reboots[id] = rb[i]
	}
	oa := OutageScaffold(st.res, reboots)

	gaps := make([][]Gap, len(ids))
	sts := make([]ProbeOutageStats, len(ids))
	err = st.forEach(ctx, len(ids), func(i int) error {
		id := ids[i]
		gaps[i], sts[i] = ProbeOutage(st.ds, st.res.Views[id], reboots[id], oa.FirmwareDays)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i, id := range ids {
		oa.Gaps[id] = gaps[i]
		oa.Stats[id] = sts[i]
	}
	st.rep.Outage = oa
	st.rep.Figure6RebootsPerDay = oa.RebootsPerDay
	st.rep.Figure6FirmwareDays = oa.FirmwareDays
	return len(ids), nil
}

// stagePac builds the conditional-probability artefacts: Figures 7/8,
// Table 6, Figure 9.
func stagePac(ctx context.Context, st *runState) (int, error) {
	oa := st.rep.Outage
	hasChanges := func(id atlasdata.ProbeID) bool { return len(st.res.Views[id].Changes) > 0 }
	st.rep.Figure7, st.rep.Figure8 = BuildPacFiguresFrom(oa.Stats, hasChanges, st.byAS, st.opts.TopASes)
	st.rep.Table6 = OutagesRows(oa.Stats, st.byAS)
	st.rep.Figure9 = BuildFigure9(oa, st.res, st.byAS, st.rep.Table6, st.opts.Figure9ASNs)
	return len(st.res.ASProbes), nil
}

// stageLinkType infers per-AS access technology from outage response.
func stageLinkType(ctx context.Context, st *runState) (int, error) {
	st.rep.LinkTypes = LinkTypesByAS(st.rep.Outage, st.res)
	return len(st.res.ASProbes), nil
}

// stagePrefix computes each probe's Table 7 counters (fan-out) and
// aggregates the summary and per-AS rows.
func stagePrefix(ctx context.Context, st *runState) (int, error) {
	ids := st.res.ASProbes
	rows := make([]PrefixChangeRow, len(ids))
	err := st.forEach(ctx, len(ids), func(i int) error {
		rows[i] = ProbePrefixChanges(st.ds, st.res.Views[ids[i]])
		return nil
	})
	if err != nil {
		return 0, err
	}
	perProbe := make(map[atlasdata.ProbeID]PrefixChangeRow, len(ids))
	for i, id := range ids {
		perProbe[id] = rows[i]
	}
	st.rep.Table7All = PrefixAllOver(ids, perProbe)
	st.rep.Table7ByAS = PrefixRowsOver(st.byAS, perProbe)
	return len(ids), nil
}

// stageFigures builds the TTF figures (1-3) and the Figure 4/5 hour
// histograms from the classification stages' outputs.
func stageFigures(ctx context.Context, st *runState) (int, error) {
	st.rep.Figure1 = BuildFigure1(st.res, st.ttfs)
	st.rep.Figure2 = BuildFigure2(st.res, st.ttfs, st.byAS, st.opts.TopASes)
	st.rep.Figure3 = BuildFigure3(st.res, st.ttfs, st.byAS, st.opts.Figure3Country, st.opts.Figure3MinYears)
	st.rep.HourHists = BuildHourHists(st.res, st.byAS, st.rep.Table5)
	return len(st.res.GeoProbes), nil
}

// stageExtensions runs the beyond-the-paper analyses.
func stageExtensions(ctx context.Context, st *runState) (int, error) {
	st.rep.AdminEvents = DetectAdminRenumbering(st.res)
	st.rep.ChurnMean = MeanTurnover(DailyChurn(st.ds, st.res.GeoProbes))
	st.rep.V6 = AnalyzeV6(st.ds)
	return len(st.res.GeoProbes), nil
}
