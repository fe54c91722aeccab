package atlasapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/obs"
)

// analysisSummary is the JSON shape of /api/v1/analysis: the report's
// headline numbers plus the run's metrics. Fields owned by
// stages the request excluded stay at their zero values.
type analysisSummary struct {
	GeoProbes     int              `json:"geo_probes"`
	ASProbes      int              `json:"as_probes"`
	Categories    map[string]int   `json:"categories,omitempty"`
	Table5Rows    int              `json:"table5_rows"`
	Table6Rows    int              `json:"table6_rows"`
	Table7Changes int              `json:"table7_changes"`
	LinkTypeRows  int              `json:"linktype_rows"`
	AdminEvents   int              `json:"admin_events"`
	ChurnMean     float64          `json:"churn_mean"`
	Metrics       *core.RunMetrics `json:"metrics"`
}

// analysis runs core.Run over the served dataset under the
// request's context, so a disconnecting client aborts the run at the
// next stage or probe boundary instead of computing a report nobody
// will read.
//
//	GET /api/v1/analysis?parallel=4&stages=filter,outage
//
// Both parameters are optional: parallel defaults to GOMAXPROCS,
// stages to all (dependencies of the named stages join automatically).
func (s *Server) analysis(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	workers := 0
	if v := q.Get("parallel"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad parallel %q", v), http.StatusBadRequest)
			return
		}
		workers = n
	}
	stages, err := core.ParseStages(q.Get("stages"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// An archive on disk is read into memory while requests use it.
	ds, err := s.shared.acquire(r.Context(), s.src)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer s.shared.release()
	rep, err := core.Run(r.Context(), ds, core.Config{
		Parallelism: workers,
		Stages:      stages,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone; there is nobody to answer.
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	exportRunMetrics(s.metrics, rep.Metrics)

	out := analysisSummary{
		Table5Rows:   len(rep.Table5),
		Table6Rows:   len(rep.Table6),
		LinkTypeRows: len(rep.LinkTypes),
		AdminEvents:  len(rep.AdminEvents),
		ChurnMean:    rep.ChurnMean,
		Metrics:      rep.Metrics,
	}
	out.Table7Changes = rep.Table7All.Changes
	if rep.Filter != nil {
		out.GeoProbes = len(rep.Filter.GeoProbes)
		out.ASProbes = len(rep.Filter.ASProbes)
		out.Categories = make(map[string]int, len(rep.Table2))
		for cat, n := range rep.Table2 {
			out.Categories[cat.String()] = n
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// exportRunMetrics publishes one analysis run's core.RunMetrics into
// reg, so the numbers behind `churnctl metrics` and the /metrics
// exposition are the same measurements. Stage wall time goes into a
// per-stage histogram whose _sum is the cumulative seconds spent in the
// stage and whose _count is the number of runs; a gauge carries the
// latest run's parallelism. A nil reg (atlasd -metrics=false) is a
// no-op.
func exportRunMetrics(reg *obs.Registry, m *core.RunMetrics) {
	if reg == nil {
		return
	}
	reg.Counter("engine_runs_total", "Analysis engine runs completed.").Inc()
	reg.Gauge("engine_parallelism", "Worker-pool size of the most recent engine run.").
		Set(float64(m.Parallelism))
	for _, st := range m.Stages {
		l := obs.L("stage", st.Stage)
		reg.Histogram("engine_stage_wall_seconds",
			"Wall time per engine stage and run, in seconds (the sum is cumulative stage time).",
			nil, l).
			Observe(st.Wall.Seconds())
		reg.Counter("engine_stage_records_total",
			"Records processed per engine stage.", l).
			Add(int64(st.Records))
	}
}

// sharedDataset lets overlapping analysis requests share one dataset
// materialised from the Source: N concurrent requests over an archive on
// disk hold one copy of its records, not N, and the copy is freed when
// the last of them is done.
type sharedDataset struct {
	lock   chan struct{} // a mutex that a waiting request can give up on
	ds     *atlasdata.Dataset
	copied bool // ds was read for the requests, not the Source itself
	refs   int  // requests holding ds
}

// acquire returns the shared dataset, reading it from src if no request
// holds one. Each successful acquire must be paired with a release.
// While one request reads, the others wait for its copy; if ctx is done
// first, acquire returns ctx's error.
func (sh *sharedDataset) acquire(ctx context.Context, src Source) (*atlasdata.Dataset, error) {
	select {
	case sh.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-sh.lock }()
	if sh.ds == nil {
		ds, err := src.Dataset(ctx)
		if err != nil {
			return nil, err
		}
		sh.ds, sh.copied = ds, any(ds) != any(src)
	}
	sh.refs++
	return sh.ds, nil
}

func (sh *sharedDataset) release() {
	sh.lock <- struct{}{}
	sh.refs--
	free := sh.refs == 0 && sh.copied
	if sh.refs == 0 {
		sh.ds = nil
	}
	<-sh.lock
	if free {
		// Collect the copy now: left to the next GC cycle, it would still
		// be in the heap when the next request reads its own.
		debug.FreeOSMemory()
	}
}
