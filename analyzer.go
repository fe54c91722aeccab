package dynaddr

import (
	"context"

	"dynaddr/internal/core"
	"dynaddr/internal/stream"
)

// Stage names one node of the analysis DAG. Stages
// passed to WithStages are expanded with their transitive dependencies,
// so WithStages(StageFigures) runs filter, ttf, periodic and figures.
type Stage = core.Stage

// The analysis stages, for WithStages.
const (
	StageFilter     = core.StageFilter
	StageTTF        = core.StageTTF
	StagePeriodic   = core.StagePeriodic
	StageOutage     = core.StageOutage
	StagePac        = core.StagePac
	StageLinkType   = core.StageLinkType
	StagePrefix     = core.StagePrefix
	StageFigures    = core.StageFigures
	StageExtensions = core.StageExtensions
)

// Stages lists every analysis stage in canonical order.
func Stages() []Stage {
	out := make([]Stage, len(core.AllStages))
	copy(out, core.AllStages)
	return out
}

// ParseStages parses a comma-separated stage list ("" and "all" mean
// every stage) — the format churnctl's -stages flag accepts.
func ParseStages(s string) ([]Stage, error) { return core.ParseStages(s) }

// RunMetrics describes how a report was computed: worker-pool size and
// per-stage wall time and record counts. Filled by the Analyzer.
type RunMetrics = core.RunMetrics

// StageMetric is one stage's entry in RunMetrics.
type StageMetric = core.StageMetric

// Analyzer runs the staged analysis pipeline over datasets. Construct
// it with NewAnalyzer; the zero value is also valid and analyzes
// everything with default options at GOMAXPROCS parallelism. An
// Analyzer is immutable after construction and safe for concurrent use.
//
// The report an Analyzer produces is identical (ignoring
// Report.Metrics) whatever the parallelism.
type Analyzer struct {
	cfg core.Config
}

// AnalyzerOption configures an Analyzer at construction.
type AnalyzerOption func(*Analyzer)

// NewAnalyzer builds an Analyzer from functional options:
//
//	an := dynaddr.NewAnalyzer(
//		dynaddr.WithTopASes(10),
//		dynaddr.WithParallelism(4),
//	)
//	report, err := an.AnalyzeContext(ctx, ds)
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	a := &Analyzer{}
	for _, o := range opts {
		o(a)
	}
	return a
}

// WithTopASes sets how many ASes Figures 2, 7 and 8 include
// (default 5).
func WithTopASes(n int) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Options.TopASes = n }
}

// WithFigure3Country selects Figure 3's country (default "DE").
func WithFigure3Country(cc string) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Options.Figure3Country = cc }
}

// WithFigure3MinYears sets the minimum total address time for a
// Figure 3 AS, in years (default 3, the paper's bound).
func WithFigure3MinYears(years float64) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Options.Figure3MinYears = years }
}

// WithFigure9ASNs pins Figure 9's contrast ASes; unset picks the
// highest- and lowest-renumbering ASes from Table 6 automatically.
func WithFigure9ASNs(asns ...uint32) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Options.Figure9ASNs = asns }
}

// WithStages restricts the run to the given stages plus their
// transitive dependencies. Report fields owned by unselected stages
// stay zero. Default: all stages.
func WithStages(stages ...Stage) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Stages = stages }
}

// WithParallelism bounds the worker pool shared by all stages. Zero or
// negative means GOMAXPROCS; one worker is the serial run.
func WithParallelism(n int) AnalyzerOption {
	return func(a *Analyzer) { a.cfg.Parallelism = n }
}

// Analyze runs the selected stages over a dataset. It fails only on
// configuration errors (an unknown stage name).
func (a *Analyzer) Analyze(ds *Dataset) (*Report, error) {
	return a.AnalyzeContext(context.Background(), ds)
}

// AnalyzeContext is Analyze under a context: cancellation is observed
// at stage boundaries and between per-probe tasks, and the run returns
// ctx.Err() without finishing the remaining stages.
func (a *Analyzer) AnalyzeContext(ctx context.Context, ds *Dataset) (*Report, error) {
	return core.Run(ctx, ds, a.cfg)
}

// Live ingest, re-exported from the streaming subsystem so library
// users reach it without importing internal packages.

// Ingester consumes live Atlas-shaped record streams and maintains
// incrementally updated churn aggregates; see NewIngester.
type Ingester = stream.Ingester

// StreamConfig parameterises a live Ingester (shard count, buffer
// size, pfx2as store).
type StreamConfig = stream.Config

// Snapshot is a consistent point-in-time view of an Ingester's
// analysis state.
type Snapshot = stream.Snapshot

// ASAggregate is one AS's live aggregate within a Snapshot.
type ASAggregate = stream.ASAggregate

// RecordCounts counts ingested records by kind.
type RecordCounts = stream.RecordCounts

// ErrIngesterClosed is returned by ingest calls after Close.
var ErrIngesterClosed = stream.ErrClosed

// NewIngester starts a live ingester; an Ingester satisfies RecordSink,
// so GenerateTo and ReplayDataset can feed it directly.
func NewIngester(cfg StreamConfig) *Ingester { return stream.NewIngester(cfg) }

// RecoverStats summarises what a Recover call restored: shard count,
// probes loaded from checkpoints and WAL records replayed.
type RecoverStats = stream.RecoverStats

// ProbeCursor is a probe's durable resume position — how many records
// of each kind have been made durable, counting rejected ones — which a
// producer uses to skip the already-persisted prefix after a crash.
type ProbeCursor = stream.ProbeCursor

// Recover builds an Ingester from the WAL directory in cfg, restoring
// shard checkpoints and replaying each shard's log tail. On a fresh
// directory it is equivalent to NewIngester with durability enabled.
func Recover(cfg StreamConfig) (*Ingester, *RecoverStats, error) { return stream.Recover(cfg) }
