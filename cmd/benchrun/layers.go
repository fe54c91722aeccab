package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dynaddr"
	"dynaddr/internal/atlasapi"
	"dynaddr/internal/core"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// The layer passes time calls into each module's public functions over
// the workload's own record stream, one layer at a time. Passes whose
// cost is CPU report process CPU per record (the shard goroutines
// included); the rest report wall time of a single-goroutine loop.

const (
	layerCap     = 400_000 // records a CPU pass replays, at most
	durableCap   = 100_000 // records the WAL and durable passes replay (fsync-bound)
	clusterCap   = 100_000 // records the cluster pass posts through the coordinator
	passReps     = 5       // repetitions behind each CPU pass median
	durablePairs = 3       // with/without-checkpoint pairs of the durable pass
)

// layerInput is the record stream a workload's layer passes replay: the
// batches its untraced run sends (the analyze workload's is the world in
// probe order).
func layerInput(e *runEnv, name string) []batch {
	switch name {
	case "durable":
		return e.pacedPlan(0, durableRate).load
	case "poll":
		p := e.pacedPlan(0.5, pollRate)
		return append(p.warm, p.load...)
	case "cluster":
		p := e.pacedPlan(0.5, clusterRate)
		return append(p.warm, p.load...)
	case "analyze":
		return e.t.batches(e.t.probeOrder())
	}
	split := e.t.splitConns(e.t.probeOrder(), 2)
	return append(e.t.batches(split[0]), e.t.batches(split[1])...)
}

// capBatches keeps the leading batches holding at most n records.
func capBatches(bs []batch, n int) []batch {
	total := 0
	for i, b := range bs {
		if total+b.records > n {
			return bs[:i]
		}
		total += b.records
	}
	return bs
}

// layerResult carries the pass values plus the CPU terms the ledger
// reconciles, all in nanoseconds per record.
type layerResult struct {
	values                            map[string]value
	decode, off, on, handler, durable float64
	hook, handlerOnly                 float64 // medians of the paired differences
	coordSelf, filterCPU, outagesCPU  float64
}

func (lr *layerResult) set(name, unit string, v float64, n int) {
	lr.values[name] = value{Value: v, Unit: unit, N: n}
}

func runLayerPasses(e *runEnv, all []batch) (*layerResult, error) {
	lr := &layerResult{values: map[string]value{}}
	bs := capBatches(all, layerCap)
	n := records(bs)
	size := 0
	for _, b := range bs {
		size += len(b.body)
	}
	lr.set("wire.bytes_per_record", "B", float64(size)/float64(n), n)

	var decodes []float64
	for i := 0; i < passReps; i++ {
		v, err := cpuPass(n, func() error { return decodePass(bs) })
		if err != nil {
			return nil, err
		}
		decodes = append(decodes, v)
	}
	lr.decode = median(decodes)
	lr.set("wire.decode_cpu_ns_per_record", "ns", lr.decode, passReps)

	// The three ingest passes run as interleaved triples so that each
	// difference (analysis hooks, handler) is taken between neighbours:
	// stream (IngestWire plus a drain barrier) with analysis off, with
	// analysis on, and the whole handler chain atlasd mounts, called
	// directly with each batch as a POST.
	var offs, ons, handlers, hooks, handlerDiffs, pressure []float64
	var on, hing *stream.Ingester
	var h http.Handler
	closeAll := func() {
		for _, ing := range []*stream.Ingester{on, hing} {
			if ing != nil {
				ing.Close()
			}
		}
	}
	defer closeAll()
	for i := 0; i < passReps; i++ {
		closeAll()
		off, err := cpuPass(n, func() error {
			ing := stream.NewIngester(stream.Config{Shards: ingestShards, Pfx2AS: e.t.ds.Pfx2AS})
			defer ing.Close()
			stop := samplePressure(ing, &pressure)
			defer stop()
			return ingestDrain(ing, bs)
		})
		if err != nil {
			return nil, err
		}
		onv, err := cpuPass(n, func() error {
			on = stream.NewIngester(e.liveConfig(""))
			return ingestDrain(on, bs)
		})
		if err != nil {
			return nil, err
		}
		hv, err := cpuPass(n, func() error {
			hing = stream.NewIngester(e.liveConfig(""))
			h = liveHandler(hing, obs.NewRegistry())
			if err := postAll(h, bs); err != nil {
				return err
			}
			_, err := hing.SnapshotContext(context.Background())
			return err
		})
		if err != nil {
			return nil, err
		}
		offs, ons, handlers = append(offs, off), append(ons, onv), append(handlers, hv)
		hooks, handlerDiffs = append(hooks, onv-off), append(handlerDiffs, hv-onv)
	}
	lr.off, lr.on, lr.handler = median(offs), median(ons), median(handlers)
	lr.hook, lr.handlerOnly = median(hooks), median(handlerDiffs)
	lr.set("stream.ingest_cpu_ns_per_record", "ns", lr.off, passReps)
	lr.set("stream.queue_pressure_p99", "ratio", quantile(pressure, 0.99), len(pressure))
	lr.set("liveanalysis.hook_cpu_ns_per_record", "ns", lr.hook, passReps)
	lr.set("atlasapi.handler_cpu_ns_per_record", "ns", lr.handlerOnly, passReps)
	if err := readPasses(lr, on); err != nil {
		return nil, err
	}
	if err := getPasses(lr, h); err != nil {
		return nil, err
	}
	adm := atlasapi.NewAdmission(atlasapi.AdmissionConfig{HighWater: -1}, hing.QueuePressure, nil)
	const admits = 200_000
	t := time.Now()
	for i := 0; i < admits; i++ {
		release, reason, ok := adm.Admit("v2")
		if !ok {
			return nil, fmt.Errorf("uncontended admission shed (%s)", reason)
		}
		release()
	}
	lr.set("atlasapi.admit_ns_per_batch", "ns", float64(time.Since(t))/admits, admits)

	if err := durablePasses(e, lr, capBatches(all, durableCap)); err != nil {
		return nil, err
	}
	if err := walPasses(e, lr, capBatches(all, durableCap)); err != nil {
		return nil, err
	}
	if err := clusterPasses(e, lr, capBatches(all, clusterCap)); err != nil {
		return nil, err
	}
	batchPasses(e, lr)
	return lr, nil
}

// cpuPass runs pass once and returns its process CPU per record, in
// nanoseconds.
func cpuPass(records int, pass func() error) (float64, error) {
	runtime.GC()
	c0 := cpuSelf()
	if err := pass(); err != nil {
		return 0, err
	}
	return (cpuSelf() - c0) * 1e9 / float64(records), nil
}

// postAll POSTs every batch straight into h.ServeHTTP, requiring 200s.
func postAll(h http.Handler, bs []batch) error {
	for _, b := range bs {
		req := httptest.NewRequest(http.MethodPost, atlasapi.RouteStreamRecords, bytes.NewReader(b.body))
		req.Header.Set("Content-Type", atlasapi.ContentTypeBinary)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler pass: POST %d: %s", w.Code, w.Body.Bytes())
		}
	}
	return nil
}

// decodePass frames and decodes every record without ingesting it.
func decodePass(bs []batch) error {
	for _, b := range bs {
		it := wire.Frames(b.body)
		for {
			payload, done, err := it.Next()
			if err != nil {
				return err
			}
			if done {
				break
			}
			kind, err := wire.PayloadKind(payload)
			if err != nil {
				return err
			}
			switch kind {
			case wire.KindMeta:
				_, err = wire.DecodeMeta(payload)
			case wire.KindConn:
				_, err = wire.DecodeConnLog(payload)
			case wire.KindKRoot:
				_, err = wire.DecodeKRoot(payload)
			case wire.KindUptime:
				_, err = wire.DecodeUptime(payload)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ingestDrain feeds every batch and waits for the shards to apply them.
func ingestDrain(ing *stream.Ingester, bs []batch) error {
	ctx := context.Background()
	for _, b := range bs {
		if _, err := ing.IngestWire(ctx, b.body); err != nil {
			return err
		}
	}
	_, err := ing.SnapshotContext(ctx)
	return err
}

// samplePressure records QueuePressure at 100 Hz until stopped.
func samplePressure(ing *stream.Ingester, into *[]float64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				*into = append(*into, ing.QueuePressure())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// timeMedian runs f n times and returns the median wall time in unit.
func timeMedian(n int, unit time.Duration, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t))/float64(unit))
	}
	return median(xs), nil
}

// readPasses times the read-side layers over the analysis-on ingester:
// the snapshot and analysis barriers, the serve tier's refreshes, its
// renders, and a generation hit.
func readPasses(lr *layerResult, ing *stream.Ingester) error {
	ctx := context.Background()
	v, err := timeMedian(5, time.Millisecond, func() error { _, err := ing.SnapshotContext(ctx); return err })
	if err != nil {
		return err
	}
	lr.set("stream.snapshot_ms", "ms", v, 5)
	if v, err = timeMedian(5, time.Millisecond, func() error { _, _, err := ing.AnalysisVersioned(ctx); return err }); err != nil {
		return err
	}
	lr.set("liveanalysis.fold_ms", "ms", v, 5)
	if v, err = timeMedian(5, time.Millisecond, func() error { _, err := serve.NewTier(ing).Refresh(ctx); return err }); err != nil {
		return err
	}
	lr.set("serve.refresh_ms", "ms", v, 5)
	tier := serve.NewTier(ing)
	gen, err := tier.Refresh(ctx)
	if err != nil {
		return err
	}
	if v, err = timeMedian(20, time.Microsecond, func() error { _, err := tier.Refresh(ctx); return err }); err != nil {
		return err
	}
	lr.set("serve.refresh_reused_us", "us", v, 20)
	renders := []struct {
		name string
		f    func() ([]byte, error)
	}{
		{"summary", func() ([]byte, error) { return serve.RenderSummary(gen.Snap) }},
		{"continents", func() ([]byte, error) { return serve.RenderContinents(gen.Snap) }},
		{"analysis", func() ([]byte, error) { return serve.RenderAnalysis(gen.Analysis) }},
	}
	for _, rd := range renders {
		if v, err = timeMedian(20, time.Microsecond, func() error { _, err := rd.f(); return err }); err != nil {
			return err
		}
		lr.set("serve.render_"+rd.name+"_us", "us", v, 20)
	}
	hot := serve.NewTier(ing, serve.WithMaxStaleness(time.Hour))
	if _, err := hot.Refresh(ctx); err != nil {
		return err
	}
	const hits = 200_000
	t := time.Now()
	for i := 0; i < hits; i++ {
		if _, err := hot.Generation(ctx); err != nil {
			return err
		}
	}
	lr.set("serve.hit_ns", "ns", float64(time.Since(t))/hits, hits)
	return nil
}

// getPasses times full-handler GETs: bodies from the serve tier, and a
// revalidation answered 304.
func getPasses(lr *layerResult, h http.Handler) error {
	do := func(path, etag string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK && w.Code != http.StatusNotModified {
			return nil, fmt.Errorf("GET %s: %d", path, w.Code)
		}
		return w, nil
	}
	for _, path := range artifactPaths {
		if _, err := do(path, ""); err != nil { // warm the generation
			return err
		}
		v, err := timeMedian(200, time.Microsecond, func() error { _, err := do(path, ""); return err })
		if err != nil {
			return err
		}
		lr.set("atlasapi.get_200_us."+routeName(path), "us", v, 200)
	}
	w, err := do(artifactPaths[0], "")
	if err != nil {
		return err
	}
	etag := w.Header().Get("ETag")
	v, err := timeMedian(200, time.Microsecond, func() error {
		w, err := do(artifactPaths[0], etag)
		if err == nil && w.Code != http.StatusNotModified {
			etag = w.Header().Get("ETag") // the generation moved on; revalidate against it
		}
		return err
	})
	if err != nil {
		return err
	}
	lr.set("atlasapi.get_304_us", "us", v, 200)
	return nil
}

// durablePasses ingests into WAL-backed ingesters (fsync every 64
// appends) with default checkpoints and with checkpoints off, then times
// Recover on a copy of the last checkpointing one's directory.
func durablePasses(e *runEnv, lr *layerResult, bs []batch) error {
	n := records(bs)
	pass := func(dir string, ckpt int) (cpu float64, gen uint64, err error) {
		cfg := e.liveConfig(dir)
		cfg.CheckpointEvery = ckpt
		runtime.GC()
		c0 := cpuSelf()
		ing, _, err := stream.Recover(cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := ingestDrain(ing, bs); err != nil {
			ing.Close()
			return 0, 0, err
		}
		cpu = (cpuSelf() - c0) * 1e9 / float64(n)
		snap, err := ing.SnapshotContext(context.Background())
		if err != nil {
			ing.Close()
			return 0, 0, err
		}
		return cpu, snap.Version.Generation, ing.Close()
	}
	// Interleaved pairs, so that the checkpoint share is a difference
	// between neighbours; each pass writes a fresh directory.
	var withs, shares []float64
	var gen uint64
	var dir string
	for i := 0; i < durablePairs; i++ {
		dir = filepath.Join(e.work, fmt.Sprintf("layer-durable-%d", i))
		with, g, err := pass(dir, 4096)
		if err != nil {
			return err
		}
		without, _, err := pass(filepath.Join(e.work, fmt.Sprintf("layer-durable-nockpt-%d", i)), -1)
		if err != nil {
			return err
		}
		withs, shares, gen = append(withs, with), append(shares, (with-without)/with), g
	}
	lr.durable = median(withs)
	lr.set("stream.durable_cpu_ns_per_record", "ns", lr.durable, durablePairs)
	lr.set("stream.checkpoint_share", "ratio", median(shares), durablePairs)
	lr.set("stream.checkpoints_per_mrecord", "count", float64(gen)/float64(n)*1e6, 1)
	cp := dir + "-copy"
	if err := copyDir(dir, cp); err != nil {
		return err
	}
	var ing *stream.Ingester
	v, err := timeMedian(1, time.Millisecond, func() error {
		var err error
		ing, _, err = stream.Recover(e.liveConfig(cp))
		return err
	})
	if err != nil {
		return err
	}
	lr.set("stream.recover_ms", "ms", v, 1)
	return ing.Close()
}

// walPasses appends the records' payloads to a bare log, timing an
// explicit Sync every 64 appends, then replays the log.
func walPasses(e *runEnv, lr *layerResult, bs []batch) error {
	var payloads [][]byte
	for _, b := range bs {
		it := wire.Frames(b.body)
		for {
			p, done, err := it.Next()
			if err != nil {
				return err
			}
			if done {
				break
			}
			payloads = append(payloads, p)
		}
	}
	dir := filepath.Join(e.work, "layer-wal")
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	var appendTime time.Duration
	var syncs []float64
	for i, p := range payloads {
		t := time.Now()
		if _, err := log.Append(p); err != nil {
			log.Close()
			return err
		}
		appendTime += time.Since(t)
		if (i+1)%64 == 0 {
			t := time.Now()
			if err := log.Sync(); err != nil {
				log.Close()
				return err
			}
			syncs = append(syncs, float64(time.Since(t))/1e3)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	lr.set("wal.append_ns_per_record", "ns", float64(appendTime)/float64(len(payloads)), len(payloads))
	lr.set("wal.fsync_us_p50", "us", quantile(syncs, 0.5), len(syncs))
	lr.set("wal.fsync_us_p99", "us", quantile(syncs, 0.99), len(syncs))
	replayed := 0
	t := time.Now()
	if err := wal.Replay(dir, 0, func(uint64, []byte) error { replayed++; return nil }); err != nil {
		return err
	}
	if replayed != len(payloads) {
		return fmt.Errorf("wal replay: %d records, want %d", replayed, len(payloads))
	}
	lr.set("wal.replay_ns_per_record", "ns", float64(time.Since(t))/float64(replayed), replayed)
	return nil
}

// clusterPasses posts records through an in-process coordinator over
// three peers, reads the merged artifacts back, and takes the
// coordinator's self time (its span minus its peer calls) from the
// spans; then times the view decode and the two merges on the peers'
// own views.
func clusterPasses(e *runEnv, lr *layerResult, bs []batch) error {
	rec := newSpanRecorder()
	p, err := e.newCluster(rec)
	if err != nil {
		return err
	}
	defer p.close()
	ctx := context.Background()
	c := &http.Client{Timeout: 60 * time.Second, Transport: rec.transport("client", connTransport())}
	defer c.CloseIdleConnections()
	ops := &opStats{}
	closedLoop(ctx, c, p.front, bs, ops)
	if err := ops.err(); err != nil {
		return err
	}
	const gets = 10
	for i := 0; i < gets; i++ {
		for _, path := range []string{"/api/v1/live/summary", "/api/v1/live/analysis"} {
			if _, _, err := fetch(ctx, c, p.front+path); err != nil {
				return err
			}
		}
	}
	spans := rec.finish()
	viewBytes := map[uint64]float64{}
	var postSelf float64
	self := map[string][]float64{}
	var peerView []float64
	for _, s := range spans {
		switch {
		case s.Side == "server" && s.Name == "coordinator POST "+atlasapi.RouteStreamRecords:
			postSelf += float64(s.Self)
		case s.Side == "server" && s.Name == "coordinator GET /api/v1/live/summary":
			self["summary"] = append(self["summary"], float64(s.Self)/1e6)
		case s.Side == "server" && s.Name == "coordinator GET /api/v1/live/analysis":
			self["analysis"] = append(self["analysis"], float64(s.Self)/1e6)
		case s.Side == "server" && s.Name == "peer GET "+atlasapi.RouteClusterView:
			peerView = append(peerView, float64(s.Dur)/1e6)
		case s.Side == "client" && s.Name == "coordinator GET "+atlasapi.RouteClusterView:
			viewBytes[s.Parent] += float64(s.Bytes)
		}
	}
	lr.coordSelf = postSelf / float64(records(bs))
	lr.set("cluster.post_self_ns_per_record", "ns", lr.coordSelf, len(bs))
	lr.set("cluster.get_self_ms.summary", "ms", median(self["summary"]), len(self["summary"]))
	lr.set("cluster.get_self_ms.analysis", "ms", median(self["analysis"]), len(self["analysis"]))
	lr.set("cluster.peer_view_ms", "ms", median(peerView), len(peerView))
	var vb []float64
	for _, b := range viewBytes {
		vb = append(vb, b)
	}
	lr.set("cluster.view_bytes", "B", median(vb), len(vb))

	var viewBodies, analysisBodies [][]byte
	for _, peer := range p.peers {
		body, _, err := fetch(ctx, c, peer+atlasapi.RouteClusterView)
		if err != nil {
			return err
		}
		viewBodies = append(viewBodies, body)
		if body, _, err = fetch(ctx, c, peer+atlasapi.RouteClusterAnalysisView); err != nil {
			return err
		}
		analysisBodies = append(analysisBodies, body)
	}
	var views []*stream.PeerView
	v, err := timeMedian(5, time.Millisecond, func() error {
		views = views[:0]
		for _, b := range viewBodies {
			var pv stream.PeerView
			if err := json.Unmarshal(b, &pv); err != nil {
				return err
			}
			views = append(views, &pv)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.set("cluster.view_decode_ms", "ms", v, 5)
	v, _ = timeMedian(5, time.Millisecond, func() error { stream.MergePeerViews(views, clusterTotal); return nil })
	lr.set("cluster.merge_ms", "ms", v, 5)
	var aviews []*stream.AnalysisPeerView
	for _, b := range analysisBodies {
		var av stream.AnalysisPeerView
		if err := json.Unmarshal(b, &av); err != nil {
			return err
		}
		aviews = append(aviews, &av)
	}
	v, _ = timeMedian(5, time.Millisecond, func() error { stream.MergeAnalysisPeerViews(aviews); return nil })
	lr.set("cluster.analysis_merge_ms", "ms", v, 5)
	return nil
}

// batchPasses times the batch compositions over the world.
func batchPasses(e *runEnv, lr *layerResult) {
	ds := e.t.ds
	recs := float64(len(e.t.recs))
	cpuOf := func(f func()) (wallMS, cpuNs float64) {
		var walls, cpus []float64
		for i := 0; i < passReps; i++ {
			runtime.GC()
			c0, t := cpuSelf(), time.Now()
			f()
			walls = append(walls, float64(time.Since(t))/1e6)
			cpus = append(cpus, (cpuSelf()-c0)*1e9/recs)
		}
		return median(walls), median(cpus)
	}
	var res *core.FilterResult
	v, c := cpuOf(func() { res = core.Filter(ds) })
	lr.filterCPU = c
	lr.set("core.filter_ms", "ms", v, passReps)
	v, lr.outagesCPU = cpuOf(func() { core.AnalyzeOutages(ds, res) })
	lr.set("core.outages_ms", "ms", v, passReps)
	an := dynaddr.NewAnalyzer(dynaddr.WithParallelism(1))
	v, _ = cpuOf(func() { _, _ = an.Analyze(ds) }) // without stage selection Analyze cannot fail
	lr.set("engine.analyze_p1_ms", "ms", v, passReps)
	v, _ = cpuOf(func() { liveanalysis.FromBatch(ds, liveanalysis.Options{}) })
	lr.set("liveanalysis.frombatch_ms", "ms", v, passReps)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// ledgerRow is one layer's share of a workload's server CPU per record.
type ledgerRow struct {
	Layer       string  `json:"layer"`
	NsPerRecord float64 `json:"ns_per_record"`
	Share       float64 `json:"share"`
}

// reconcile splits the untraced run's cpu_us_per_record into the layer
// terms the passes measured plus an unattributed remainder, so the rows
// add up to the end-to-end figure by construction:
//
//	wire.decode          the decode pass
//	stream.apply         stream pass (analysis off) minus decode
//	liveanalysis.hooks   stream pass with analysis on minus off (paired)
//	atlasapi.handler     ServeHTTP pass minus the analysis-on stream pass (paired)
//	wal_checkpoint       durable pass minus the in-memory one (durable)
//	cluster.coordinator  coordinator self time per record (cluster)
//	core.filter, core.outages   batch stages (analyze, instead of the above)
//	unattributed         the rest: HTTP stack, kernel, reads, GC, ...
func reconcile(r *result, lr *layerResult) []ledgerRow {
	total := r.Metrics["cpu_us_per_record"].Value * 1e3
	var rows []ledgerRow
	add := func(layer string, ns float64) { rows = append(rows, ledgerRow{Layer: layer, NsPerRecord: ns}) }
	if r.Workload == "analyze" {
		add("core.filter", lr.filterCPU)
		add("core.outages", lr.outagesCPU)
	} else {
		add("wire.decode", lr.decode)
		add("stream.apply", lr.off-lr.decode)
		add("liveanalysis.hooks", lr.hook)
		add("atlasapi.handler", lr.handlerOnly)
		if r.Workload == "durable" {
			add("wal_checkpoint", lr.durable-lr.on)
		}
		if r.Workload == "cluster" {
			add("cluster.coordinator", lr.coordSelf)
		}
	}
	sum := 0.0
	for _, row := range rows {
		sum += row.NsPerRecord
	}
	add("unattributed", total-sum)
	for i := range rows {
		rows[i].Share = rows[i].NsPerRecord / total
	}
	return rows
}
