// Command atlasd serves a dataset through the RIPE-Atlas-style HTTP
// endpoints (probe archive, per-probe connection-history pages,
// measurement-result streams, pfx2as snapshots) that cmd/churnctl can
// scrape with -url — the collection boundary of the paper's §3. With
// -live it additionally mounts the streaming ingest and incremental
// query endpoints backed by a stream.Ingester: the negotiated v2 batch
// endpoint (POST /api/v2/stream/records, binary or NDJSON by
// Content-Type; body size bounded by -wire-max-batch). cmd/wirepack
// converts the batch endpoints' text formats into binary batches for
// shell pipelines.
//
// Usage:
//
//	atlasd -data DIR -addr :8042          # serve a generated dataset
//	atlasd -seed 7 -scale 0.3 -addr :8042 # generate in memory and serve
//	atlasd -seed 7 -live -shards 8        # batch endpoints + live ingest
//	atlasd -live                          # live ingest only (no AS mapping)
//	atlasd -live -wal-dir DIR -fsync 64   # durable ingest, crash-recoverable
//
// -data validates the whole directory at startup, in one pass over
// every record line before the listener opens; with a dataset of any
// size, that pass is most of atlasd's time to ready. Afterwards only
// the probe archive, the pfx2as snapshots and an index of each probe's
// lines stay in memory: every batch GET reads and parses that probe's
// lines from disk, and GET /api/v1/analysis reads the whole archive for
// the length of the request (overlapping requests share one copy). The
// record files must not be rewritten in place while atlasd runs (a read
// whose bytes changed fails with 500); replacing them by rename, as
// atlasgen does, is safe.
//
// With -wal-dir the ingest tier is durable: every record is appended to
// a per-shard write-ahead log before being applied, shards checkpoint
// their state every -checkpoint-every records (a negative value turns
// checkpoints off, and the logs then grow until exit), and on boot the
// state is recovered from checkpoints plus WAL replay before the live
// endpoints are mounted. A checkpoint is encoded in binary on the
// shard and written, fsynced and renamed into place by a per-shard
// writer goroutine while the shard keeps applying records; its WAL
// prefix is truncated, and the shard's generation in the ETags
// advances, only once it is durable. The -fault-wal-* flags fail
// checkpoint writes as well as WAL appends. /healthz answers as soon as the listener is up;
// /readyz stays 503 until recovery has finished.
//
// The ingest tier is protected by admission control: at most
// -ingest-max-inflight concurrent ingest requests (each waiting up to
// -ingest-max-wait for a slot), shed with 429 + Retry-After beyond
// that, and shed outright while the shard queues are over
// -ingest-highwater full. WAL failures flip shards into read-only
// degraded mode instead of killing the process: /readyz answers 503
// with the degraded-shard count until the background probes re-arm the
// logs, and records that fail decode or validation inside a good batch
// are quarantined to per-shard dead-letter logs (GET
// /api/v1/live/deadletter to inspect, churnctl -deadletter to drain).
//
// The -chaos-* flags wrap every endpoint in the deterministic
// fault-injection middleware (internal/faultinject): request drops,
// injected 503s, truncated response bodies and added latency, for
// exercising scrape clients' retry/backoff/error-budget behaviour
// against a live server. The -fault-wal-* flags inject WAL-level
// failures (ENOSPC, fsync errors) to drive degraded mode end to end:
//
//	atlasd -seed 7 -chaos-drop 0.1 -chaos-truncate 0.05 -chaos-seed 42
//	atlasd -live -wal-dir DIR -fault-wal-enospc-after 1000 -fault-wal-heal-after 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynaddr"
	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/faultinject"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

func main() {
	start := time.Now()
	data := flag.String("data", "", "dataset directory to serve (mutually exclusive with -seed)")
	seed := flag.Uint64("seed", 0, "generate a world with this seed instead of loading")
	scale := flag.Float64("scale", 0.25, "population scale when generating")
	addr := flag.String("addr", ":8042", "listen address")
	live := flag.Bool("live", false, "mount streaming ingest and live query endpoints")
	shards := flag.Int("shards", 4, "ingest shard count in -live mode")
	analysis := flag.Bool("analysis", true, "maintain the live analysis engine in -live mode (GET /api/v1/live/analysis)")
	walDir := flag.String("wal-dir", "", "durable ingest: per-shard WAL and checkpoint directory (requires -live)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy with -wal-dir: always, off, or an integer N (sync every N appends)")
	ckptEvery := flag.Int("checkpoint-every", 4096, "records between shard checkpoints with -wal-dir (negative disables)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "fault-injection PRNG seed (0 = fixed default)")
	chaosDrop := flag.Float64("chaos-drop", 0, "probability a request's connection is dropped with no response")
	chaosError := flag.Float64("chaos-error", 0, "probability a request gets an injected 503")
	chaosTruncate := flag.Float64("chaos-truncate", 0, "probability a response body is truncated mid-stream")
	chaosDelayProb := flag.Float64("chaos-delay-prob", 0, "probability a request is delayed by -chaos-delay")
	chaosDelay := flag.Duration("chaos-delay", 0, "latency injected when -chaos-delay-prob fires")
	metricsOn := flag.Bool("metrics", true, "expose GET /metrics (Prometheus text format) and instrument the hot paths")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	wireMaxBatch := flag.Int64("wire-max-batch", atlasapi.DefaultMaxBatchBytes, "largest POST /api/v2/stream/records body accepted, in bytes")
	serveCache := flag.Bool("serve-cache", true, "serve live GETs from materialized snapshot generations with ETag caching (requires -live)")
	serveMaxStale := flag.Duration("serve-max-stale", serve.DefaultMaxStaleness, "oldest generation -serve-cache may answer with before refreshing at a barrier")
	ingestMaxInflight := flag.Int("ingest-max-inflight", atlasapi.DefaultMaxInFlight, "admission control: concurrent ingest requests before shedding 429 (negative disables the gate)")
	ingestMaxWait := flag.Duration("ingest-max-wait", atlasapi.DefaultMaxWait, "admission control: bounded queue wait for an ingest slot before shedding (negative sheds immediately)")
	ingestHighWater := flag.Float64("ingest-highwater", atlasapi.DefaultHighWater, "admission control: shard-queue fill fraction above which ingest is shed outright (negative disables)")
	ingestRetryAfter := flag.Duration("ingest-retry-after", atlasapi.DefaultRetryAfter, "Retry-After pacing hint sent with shed and degraded responses")
	faultWALWrites := flag.Int64("fault-wal-enospc-after", -1, "degraded-mode chaos: fail WAL writes with ENOSPC after this many succeed (negative disables; requires -wal-dir)")
	faultWALSyncs := flag.Int64("fault-wal-sync-fail-after", -1, "degraded-mode chaos: fail WAL fsyncs after this many succeed (negative disables; requires -wal-dir)")
	faultWALHeal := flag.Duration("fault-wal-heal-after", 0, "degraded-mode chaos: heal injected WAL faults after this delay (0 = never heal)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator over -peers (routes ingest by partition owner, merges query fan-outs)")
	peersFlag := flag.String("peers", "", "cluster membership as id=url,id=url (required with -coordinator; lets a peer derive its ring share)")
	nodeID := flag.String("node-id", "", "this peer's cluster node ID: mounts the inter-peer endpoints and tags /healthz and /readyz (requires -live and -partitions-total)")
	partsTotal := flag.Int("partitions-total", 0, "cluster-wide partition count; every peer and the coordinator must agree (0 = single-node)")
	partsFlag := flag.String("partitions", "", "partitions this peer owns: comma-separated IDs, 'none' for an empty rebalance target, or empty to derive from -peers/-node-id (all partitions when no -peers); an existing -wal-dir layout always wins")
	flag.Parse()

	if *coordinator {
		runCoordinator(coordOpts{
			addr:       *addr,
			peers:      *peersFlag,
			total:      *partsTotal,
			nodeID:     *nodeID,
			retryAfter: *ingestRetryAfter,
			maxBatch:   *wireMaxBatch,
			metricsOn:  *metricsOn,
			pprofOn:    *pprofOn,
			chaos: faultinject.Config{
				Seed:      *chaosSeed,
				Drop:      *chaosDrop,
				Error:     *chaosError,
				Truncate:  *chaosTruncate,
				DelayProb: *chaosDelayProb,
				DelayBy:   *chaosDelay,
			},
		})
		return
	}

	// A zero seed is a valid world; flag.Visit distinguishes "-seed 0"
	// from the flag never being given.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	// src stays nil with neither -data nor -seed. A -data archive is
	// validated up front and then read from disk per request.
	var src atlasapi.Source
	switch {
	case *data != "" && seedSet:
		fmt.Fprintln(os.Stderr, "atlasd: -data and -seed are mutually exclusive")
		os.Exit(2)
	case *data != "":
		archive, err := atlasdata.Open(*data)
		if err != nil {
			fatal(err)
		}
		src = archive
	case seedSet:
		cfg := dynaddr.DefaultConfig()
		cfg.Seed = *seed
		cfg.Scale = *scale
		world, err := dynaddr.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		src = world.Dataset
	case !*live:
		fmt.Fprintln(os.Stderr, "atlasd: one of -data, -seed or -live is required")
		flag.Usage()
		os.Exit(2)
	}

	if *walDir != "" && !*live {
		fmt.Fprintln(os.Stderr, "atlasd: -wal-dir requires -live")
		os.Exit(2)
	}
	if (*nodeID != "" || *partsTotal > 0 || *partsFlag != "") && !*live {
		fmt.Fprintln(os.Stderr, "atlasd: -node-id/-partitions-total/-partitions require -live")
		os.Exit(2)
	}
	if *nodeID != "" && *partsTotal <= 0 {
		fmt.Fprintln(os.Stderr, "atlasd: -node-id requires -partitions-total")
		os.Exit(2)
	}
	// reg stays nil with -metrics=false: the instrumented paths all
	// treat a nil registry as "record nothing".
	var reg *obs.Registry
	if *metricsOn {
		reg = obs.NewRegistry()
	}

	scfg := stream.Config{Shards: *shards, CheckpointEvery: *ckptEvery, Metrics: reg, Analysis: *analysis}
	if src != nil {
		scfg.Pfx2AS = src.Snapshots()
	}
	if *partsTotal > 0 {
		scfg.TotalPartitions = *partsTotal
		owned, err := ownedPartitions(*partsFlag, *peersFlag, *nodeID, *partsTotal)
		if err != nil {
			fatal(err)
		}
		// A WAL laid out on disk is the authority on what this peer owns:
		// a rebalance may have moved partitions since the flags were
		// written, and adopting ships data the flags know nothing about.
		if *walDir != "" {
			disk, err := stream.DiscoverPartitions(*walDir)
			if err != nil {
				fatal(err)
			}
			if len(disk) > 0 {
				owned = disk
				fmt.Printf("atlasd: WAL layout owns partitions %v (overriding flags)\n", disk)
			}
		}
		scfg.OwnedPartitions = owned
	}
	if *walDir != "" {
		scfg.WALDir = *walDir
		pol, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fatal(err)
		}
		scfg.Sync = pol
	}
	// WAL fault injection drives shards into degraded mode on demand —
	// the robustness smoke test's disk-full lever. The faults arm when
	// the flag's write/sync budget runs out and (optionally) heal on a
	// timer, after which the shards' background probes re-arm the logs.
	if *faultWALWrites >= 0 || *faultWALSyncs >= 0 {
		if scfg.WALDir == "" {
			fmt.Fprintln(os.Stderr, "atlasd: -fault-wal-* flags require -wal-dir")
			os.Exit(2)
		}
		ffs := faultinject.NewFaultFS(wal.OSFS)
		if *faultWALWrites >= 0 {
			ffs.FailWritesAfter(*faultWALWrites, syscall.ENOSPC)
		}
		if *faultWALSyncs >= 0 {
			ffs.FailSyncsAfter(*faultWALSyncs, syscall.EIO)
		}
		if *faultWALHeal > 0 {
			time.AfterFunc(*faultWALHeal, func() {
				ffs.Heal()
				fmt.Println("atlasd: injected WAL faults healed")
			})
		}
		scfg.FS = ffs
		fmt.Printf("atlasd: WAL fault injection on (enospc-after=%d sync-fail-after=%d heal-after=%v)\n",
			*faultWALWrites, *faultWALSyncs, *faultWALHeal)
	}

	mux := http.NewServeMux()
	if src != nil {
		as := atlasapi.NewServer(src)
		as.SetMetrics(reg)
		mux.Handle("/", as)
		fmt.Printf("atlasd: serving %d probes on %s\n", len(src.ProbeIDs()), *addr)
	}

	var handler http.Handler = mux
	chaos := faultinject.Config{
		Seed:      *chaosSeed,
		Drop:      *chaosDrop,
		Error:     *chaosError,
		Truncate:  *chaosTruncate,
		DelayProb: *chaosDelayProb,
		DelayBy:   *chaosDelay,
	}
	var injector *faultinject.Injector
	if chaos.Enabled() {
		injector = faultinject.New(chaos, mux)
		handler = injector
		fmt.Printf("atlasd: fault injection on (drop=%.2f error=%.2f truncate=%.2f delay=%v@%.2f seed=%d)\n",
			chaos.Drop, chaos.Error, chaos.Truncate, chaos.DelayBy, chaos.DelayProb, chaos.Seed)
	}

	// Health, metrics and pprof endpoints live on the root mux outside
	// the fault injector (an orchestrator's liveness probe or a scraping
	// Prometheus must never eat an injected 503) and outside the request
	// instrumentation (scrapes of /metrics should not move the request
	// metrics they read). The panic-recovery middleware wraps
	// everything, so one bad request can't take the server down.
	health := &atlasapi.Health{}
	root := http.NewServeMux()
	health.Register(root)
	if reg != nil {
		root.Handle("/metrics", obs.Handler(reg))
	}
	if *pprofOn {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	root.Handle("/", atlasapi.InstrumentHTTP(reg, handler))

	srv := &http.Server{
		Addr:         *addr,
		Handler:      atlasapi.RecoverPanics(root, nil),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// The live tier mounts after the listener is up: /healthz answers
	// while WAL recovery replays, and /readyz flips to 200 only once the
	// recovered ingest endpoints exist. (ServeMux registration is
	// locked, so mounting after serving has begun is safe; pre-mount
	// requests see 404 and should gate on /readyz.)
	var ing *stream.Ingester
	if *live {
		if scfg.WALDir != "" {
			recovered, st, err := stream.Recover(scfg)
			if err != nil {
				fatal(fmt.Errorf("recovering %s: %w", scfg.WALDir, err))
			}
			ing = recovered
			fmt.Printf("atlasd: recovered ingest state from %s (%d checkpointed probes, %d WAL records replayed, fsync=%s)\n",
				scfg.WALDir, st.CheckpointProbes, st.Replayed, scfg.Sync)
		} else {
			ing = stream.NewIngester(scfg)
		}
		// Admission control gates every ingest route, keyed to the shard
		// queues' fill fraction; /readyz drains the instance while any
		// shard is degraded after a WAL failure.
		adm := atlasapi.NewAdmission(atlasapi.AdmissionConfig{
			MaxInFlight: *ingestMaxInflight,
			MaxWait:     *ingestMaxWait,
			HighWater:   *ingestHighWater,
			RetryAfter:  *ingestRetryAfter,
		}, ing.QueuePressure, reg)
		health.SetDegraded(func() int { return len(ing.DegradedShards()) })
		lsOpts := []atlasapi.LiveOption{
			atlasapi.WithLiveMetrics(reg),
			atlasapi.WithMaxBatchBytes(*wireMaxBatch),
			atlasapi.WithAdmission(adm),
		}
		if *serveCache {
			tier := serve.NewTier(ing, serve.WithMetrics(reg), serve.WithMaxStaleness(*serveMaxStale))
			lsOpts = append(lsOpts, atlasapi.WithServeTier(tier))
		}
		if *nodeID != "" {
			lsOpts = append(lsOpts, atlasapi.WithClusterNode(*nodeID))
			health.SetNodeID(*nodeID)
		}
		ls := atlasapi.NewLiveServer(ing, lsOpts...)
		mux.Handle(atlasapi.RouteStreamRecords, ls)
		mux.Handle("/api/v1/live/", ls)
		if *nodeID != "" {
			mux.Handle("/api/v1/cluster/", ls)
			fmt.Printf("atlasd: cluster peer %s owns partitions %v of %d\n",
				*nodeID, ing.OwnedPartitions(), ing.TotalPartitions())
		}
		fmt.Printf("atlasd: live ingest on %s (%d shards, analysis=%v, serve cache=%v max-stale=%v, max-inflight=%d)\n",
			*addr, ing.Shards(), *analysis, *serveCache, *serveMaxStale, *ingestMaxInflight)
	}
	health.SetReady(true)

	// The one-line boot summary: everything an operator needs to match
	// this process against its logs and its /metrics scrape.
	walSummary := "off"
	if scfg.WALDir != "" {
		walSummary = fmt.Sprintf("%s fsync=%s", scfg.WALDir, scfg.Sync)
	}
	fmt.Printf("atlasd: up addr=%s live=%v wal=%s chaos=%v metrics=%v pprof=%v\n",
		*addr, *live, walSummary, chaos.Enabled(), *metricsOn, *pprofOn)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful exit: stop accepting connections and let in-flight ingest
	// requests finish, then drain the shard queues and flush the WALs
	// (Close syncs and closes each shard's log; it does not checkpoint —
	// the next boot replays the tail, which must always work anyway).
	fmt.Println("atlasd: shutting down")
	health.SetReady(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "atlasd: shutdown:", err)
	}
	ingested := int64(0)
	if ing != nil {
		if err := ing.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "atlasd: draining ingester:", err)
		}
		// After Close the shards are quiescent; the snapshot is the final
		// tally.
		ingested = ing.Snapshot().Records.Total()
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Printf("atlasd: chaos stats: %d requests, %d dropped, %d errored, %d truncated, %d delayed\n",
			st.Requests, st.Drops, st.Errors, st.Truncates, st.Delays)
	}
	fmt.Printf("atlasd: down records_ingested=%d uptime=%s\n",
		ingested, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atlasd:", err)
	os.Exit(1)
}
