package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dynaddr"
)

// traceWorkload is the -trace 1 half of a run: the workload repeated in
// this process twice, untraced and with every request traced (the CPU
// difference is the tracing overhead), then the layer passes over the
// workload's own inputs, then the ledger that reconciles the layers with
// the untraced run's cpu_us_per_record. Spans go to
// bench/trace-<workload>.json.
func traceWorkload(e *runEnv, r *result, root string) error {
	untraced, err := tracedRepeat(e, r.Workload, nil)
	if err != nil {
		return fmt.Errorf("untraced repeat: %w", err)
	}
	rec := newSpanRecorder()
	traced, err := tracedRepeat(e, r.Workload, rec)
	if err != nil {
		return fmt.Errorf("traced repeat: %w", err)
	}
	spans := rec.finish()
	groups := groupSpans(spans)

	r.Layers = map[string]value{}
	in := layerInput(e, r.Workload)
	lr, err := runLayerPasses(e, in)
	if err != nil {
		return fmt.Errorf("layer passes: %w", err)
	}
	for k, v := range lr.values {
		r.Layers[k] = v
	}
	ledger := reconcile(r, lr)
	for _, row := range ledger {
		r.Layers["ledger."+row.Layer+"_cpu_ns_per_record"] = value{Value: row.NsPerRecord, Unit: "ns", N: 1}
	}
	r.Layers["trace.overhead"] = value{Value: traced/untraced - 1, Unit: "ratio", N: 1}
	if v, ok := r.Metrics["not_modified_ratio"]; ok {
		r.Layers["atlasapi.not_modified_ratio"] = v
	}
	for _, g := range groups {
		if g.Side == "server" {
			r.Layers["span.self_p50_us."+g.Name] = value{Value: g.SelfP50, Unit: "us", N: g.Count}
		}
	}

	doc := traceDoc{
		Workload: r.Workload, Seed: e.seed, Seconds: e.dur.Seconds(),
		Groups: groups, Ledger: ledger, Spans: spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(root, "bench", "trace-"+r.Workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchrun: %d spans written to %s\n", len(spans), path)
	return nil
}

// traceDoc is the trace file: span summaries by name, the CPU ledger,
// and every span.
type traceDoc struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Groups   []spanGroup `json:"groups"`
	Ledger   []ledgerRow `json:"ledger"`
	Spans    []span      `json:"spans"`
}

// tracedConns are the traced run's two client connections.
func tracedConns(rec *spanRecorder) []*http.Client {
	return []*http.Client{
		{Timeout: 60 * time.Second, Transport: rec.transport("client", connTransport())},
		{Timeout: 60 * time.Second, Transport: rec.transport("client", connTransport())},
	}
}

// tracedRepeat runs the workload's traffic once more against an
// in-process deployment, every request traced unless rec is nil,
// returning the process's CPU per record over the measured phase
// (client, servers and tracing together).
func tracedRepeat(e *runEnv, name string, rec *spanRecorder) (float64, error) {
	te := *e
	te.conns = tracedConns(rec)
	defer closeConns(te.conns)
	ops := &opStats{}
	switch name {
	case "ingest":
		p, err := te.newSingleNode(rec, "")
		if err != nil {
			return 0, err
		}
		defer p.close()
		split := te.t.splitConns(te.t.probeOrder(), 2)
		plan := [][]batch{te.t.batches(split[0]), te.t.batches(split[1])}
		c0 := cpuSelf()
		var wg sync.WaitGroup
		for c := range plan {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				closedLoop(te.ctx, te.conns[c], p.front, plan[c], ops)
			}(c)
		}
		wg.Wait()
		return (cpuSelf() - c0) / float64(records(plan[0])+records(plan[1])) * 1e6, ops.err()
	case "durable", "poll", "cluster":
		var p *inproc
		var err error
		var plan paced
		var paths []string
		var hz float64
		switch name {
		case "durable":
			p, err = te.newSingleNode(rec, filepath.Join(te.work, fmt.Sprintf("repeat-wal-%t", rec != nil)))
			plan, paths, hz = te.pacedPlan(0, durableRate), artifactPaths[:1], float64(time.Second/watchPeriod)
		case "poll":
			p, err = te.newSingleNode(rec, "")
			plan, paths, hz = te.pacedPlan(0.5, pollRate), te.polled, pollHz
		default:
			p, err = te.newCluster(rec)
			plan, paths, hz = te.pacedPlan(0.5, clusterRate), clusterPaths(), clusterHz
		}
		if err != nil {
			return 0, err
		}
		defer p.close()
		rec.record(false)
		closedLoop(te.ctx, te.conns[0], p.front, plan.warm, ops)
		rec.record(true)
		out, err := te.pacedWithReads(p.front, nil, plan, paths, hz, ops)
		if err != nil {
			return 0, err
		}
		return out.clientCPU / float64(records(plan.load)) * 1e6, ops.err()
	case "analyze":
		var corpus []*dynaddr.Dataset
		recs := 0
		for _, dir := range te.corpus {
			ds, err := dynaddr.LoadDataset(dir)
			if err != nil {
				return 0, err
			}
			corpus = append(corpus, ds)
			for id := range ds.Probes {
				recs += 1 + len(ds.ConnLogs[id]) + len(ds.KRoot[id]) + len(ds.Uptime[id])
			}
		}
		an := dynaddr.NewAnalyzer(dynaddr.WithParallelism(runtime.NumCPU()))
		c0, start, passes := cpuSelf(), time.Now(), 0
		for passes < minAnalyzePasses || time.Since(start) < te.dur {
			for _, ds := range corpus {
				t := time.Now()
				rep, err := an.Analyze(ds)
				if err != nil {
					return 0, err
				}
				id := rec.newID()
				rec.add(span{ID: id, Side: "client", Name: "analyzer Analyze", Start: rec.since(t), Dur: int64(time.Since(t))})
				for _, st := range rep.Metrics.Stages {
					rec.add(span{ID: rec.newID(), Parent: id, Side: "stage", Name: "engine " + st.Stage, Start: rec.since(t), Dur: int64(st.Wall)})
				}
			}
			passes++
		}
		return (cpuSelf() - c0) / float64(passes*recs) * 1e6, nil
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}
