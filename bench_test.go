package dynaddr

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per artefact) over a paper-scale
// synthetic world, and adds ablation benchmarks for the design choices
// DESIGN.md calls out. Benchmarks attach shape metrics via
// b.ReportMetric so `go test -bench` output doubles as a compact
// reproduction record.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

var (
	benchOnce   sync.Once
	benchWorld  *sim.World
	benchFilter *core.FilterResult
	benchOutage *core.OutageAnalysis
)

func benchSetup(b *testing.B) (*sim.World, *core.FilterResult, *core.OutageAnalysis) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Seed = 77
		w, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchWorld = w
		benchFilter = core.Filter(w.Dataset)
		benchOutage = core.AnalyzeOutages(w.Dataset, benchFilter)
	})
	if benchWorld == nil {
		b.Fatal("bench world failed to build")
	}
	return benchWorld, benchFilter, benchOutage
}

// BenchmarkWorldGeneration measures the substrate itself: simulating the
// full probe population for the study year.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scale = 0.25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ConnectionLog regenerates Table 1: bounded address
// durations from one daily-renumbered probe's connection log.
func BenchmarkTable1ConnectionLog(b *testing.B) {
	w, res, _ := benchSetup(b)
	// The busiest probe's log stands in for the paper's probe 206.
	var busiest *core.ProbeView
	for _, view := range res.Views {
		if busiest == nil || len(view.Entries) > len(busiest.Entries) {
			busiest = view
		}
	}
	_ = w
	b.ResetTimer()
	var durations int
	for i := 0; i < b.N; i++ {
		durations = len(busiest.Durations())
	}
	b.ReportMetric(float64(durations), "durations")
}

// BenchmarkTable2Filtering regenerates Table 2: the probe-filtering
// pipeline over the whole dataset.
func BenchmarkTable2Filtering(b *testing.B) {
	w, _, _ := benchSetup(b)
	b.ResetTimer()
	var analyzable int
	for i := 0; i < b.N; i++ {
		res := core.Filter(w.Dataset)
		analyzable = len(res.GeoProbes)
	}
	b.ReportMetric(float64(analyzable), "geo-analyzable")
}

// BenchmarkTable5PeriodicASes regenerates Table 5: per-probe periodic
// classification and per-AS aggregation.
func BenchmarkTable5PeriodicASes(b *testing.B) {
	_, res, _ := benchSetup(b)
	byAS := core.ByAS(res)
	b.ResetTimer()
	var rows []core.ASPeriodicRow
	for i := 0; i < b.N; i++ {
		perProbe := make(map[atlasdata.ProbeID]core.PeriodicProbe)
		for _, id := range res.GeoProbes {
			if pp, ok := core.ClassifyPeriodic(res.Views[id].Durations()); ok {
				perProbe[id] = pp
			}
		}
		rows = core.PeriodicRowsOver(byAS, perProbe)
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable6OutageProbability regenerates Table 6: the full outage
// pipeline (network/power detection, firmware filtering, association).
func BenchmarkTable6OutageProbability(b *testing.B) {
	w, res, _ := benchSetup(b)
	byAS := core.ByAS(res)
	b.ResetTimer()
	var rows []core.ASOutageRow
	for i := 0; i < b.N; i++ {
		oa := core.AnalyzeOutages(w.Dataset, res)
		rows = core.OutagesRows(oa.Stats, byAS)
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable7PrefixChanges regenerates Table 7: prefix-change
// classification via month-matched pfx2as lookups.
func BenchmarkTable7PrefixChanges(b *testing.B) {
	w, res, _ := benchSetup(b)
	b.ResetTimer()
	var row core.PrefixChangeRow
	for i := 0; i < b.N; i++ {
		perProbe := make(map[atlasdata.ProbeID]core.PrefixChangeRow, len(res.ASProbes))
		for _, id := range res.ASProbes {
			perProbe[id] = core.Detect(w.Dataset, id, nil).Prefix
		}
		row = core.PrefixAllOver(res.ASProbes, perProbe)
	}
	b.ReportMetric(row.FracBGP()*100, "pct-cross-bgp")
}

// BenchmarkFigure1ContinentCDF regenerates Figure 1: total-time-fraction
// CDFs aggregated by continent.
func BenchmarkFigure1ContinentCDF(b *testing.B) {
	_, res, _ := benchSetup(b)
	b.ResetTimer()
	var curves int
	for i := 0; i < b.N; i++ {
		ttfs := core.ProbeTTFs(res)
		byCont := core.ByContinent(res)
		curves = 0
		for _, ids := range byCont {
			g := core.GroupTTF(ttfs, ids)
			if g.Total() > 0 {
				curves++
			}
		}
	}
	b.ReportMetric(float64(curves), "continents")
}

// BenchmarkFigure2TopASCDF regenerates Figure 2: TTF CDFs for the
// largest ASes.
func BenchmarkFigure2TopASCDF(b *testing.B) {
	_, res, _ := benchSetup(b)
	ttfs := core.ProbeTTFs(res)
	byAS := core.ByAS(res)
	b.ResetTimer()
	var mass float64
	for i := 0; i < b.N; i++ {
		g := core.GroupTTF(ttfs, byAS[3320])
		mass = g.MassAt(24)
	}
	b.ReportMetric(mass*100, "dtag-pct-at-24h")
}

// BenchmarkFigure3GermanyCDF regenerates Figure 3: TTF CDFs for German
// ASes.
func BenchmarkFigure3GermanyCDF(b *testing.B) {
	_, res, _ := benchSetup(b)
	ttfs := core.ProbeTTFs(res)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		byCountry := core.ByCountry(res)
		german := map[uint32][]atlasdata.ProbeID{}
		for _, id := range byCountry["DE"] {
			asn := uint32(res.Views[id].ASN)
			german[asn] = append(german[asn], id)
		}
		n = 0
		for _, ids := range german {
			if core.GroupTTF(ttfs, ids).Total() > 0 {
				n++
			}
		}
	}
	b.ReportMetric(float64(n), "german-ases")
}

// BenchmarkFigure4OrangeHours regenerates Figure 4: Orange's hour-of-day
// histogram of weekly changes.
func BenchmarkFigure4OrangeHours(b *testing.B) {
	_, res, _ := benchSetup(b)
	ids := core.ByAS(res)[3215]
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		h := core.HourHistogram(res, ids, 168)
		total = 0
		for _, c := range h {
			total += c
		}
	}
	b.ReportMetric(float64(total), "changes")
}

// BenchmarkFigure5DTAGHours regenerates Figure 5: DTAG's hour-of-day
// histogram of daily changes.
func BenchmarkFigure5DTAGHours(b *testing.B) {
	_, res, _ := benchSetup(b)
	ids := core.ByAS(res)[3320]
	b.ResetTimer()
	var night float64
	for i := 0; i < b.N; i++ {
		h := core.HourHistogram(res, ids, 24)
		in, total := 0, 0
		for hr, c := range h {
			total += c
			if hr < 6 {
				in += c
			}
		}
		if total > 0 {
			night = float64(in) / float64(total)
		}
	}
	b.ReportMetric(night*100, "pct-night")
}

// BenchmarkFigure6RebootSpikes regenerates Figure 6: reboot detection
// across all probes plus firmware-day detection.
func BenchmarkFigure6RebootSpikes(b *testing.B) {
	w, res, _ := benchSetup(b)
	b.ResetTimer()
	var fwDays int
	for i := 0; i < b.N; i++ {
		reboots := make(map[atlasdata.ProbeID][]core.Reboot, len(res.Views))
		for id := range res.Views {
			reboots[id] = core.Detect(w.Dataset, id, nil).Reboots
		}
		perDay := core.RebootsPerDay(reboots)
		fwDays = len(core.DetectFirmwareDays(perDay))
	}
	b.ReportMetric(float64(fwDays), "firmware-days")
}

// BenchmarkFigure7PacNetwork regenerates Figure 7: the per-probe
// P(ac|nw) ECDF for the top ASes.
func BenchmarkFigure7PacNetwork(b *testing.B) {
	_, res, oa := benchSetup(b)
	ids := core.ByAS(res)[3215]
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		s := oa.PacSample(ids, false)
		mean = s.Mean()
	}
	b.ReportMetric(mean, "orange-mean-pac-nw")
}

// BenchmarkFigure8PacPower regenerates Figure 8: the per-probe P(ac|pw)
// ECDF (v3 probes only).
func BenchmarkFigure8PacPower(b *testing.B) {
	_, res, oa := benchSetup(b)
	ids := core.ByAS(res)[3215]
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		s := oa.PacSample(ids, true)
		mean = s.Mean()
	}
	b.ReportMetric(mean, "orange-mean-pac-pw")
}

// BenchmarkFigure9DurationBins regenerates Figure 9: renumbering by
// outage-duration bin for the LGI/Orange contrast.
func BenchmarkFigure9DurationBins(b *testing.B) {
	_, res, oa := benchSetup(b)
	lgi := core.ByAS(res)[6830]
	orange := core.ByAS(res)[3215]
	b.ResetTimer()
	var lgiLong float64
	for i := 0; i < b.N; i++ {
		_ = oa.DurationBins(res, orange)
		bins := oa.DurationBins(res, lgi)
		total, ren := 0, 0
		for j := 8; j < len(bins); j++ {
			total += bins[j].Total
			ren += bins[j].Renumbered
		}
		if total > 0 {
			lgiLong = float64(ren) / float64(total)
		}
	}
	b.ReportMetric(lgiLong*100, "lgi-pct-renum-12h-plus")
}

// BenchmarkAnalyzeParallel runs the whole analysis at several pool
// sizes over the paper-scale world; workers=1 is the serial baseline
// the others compare against (speedup needs real cores — a single-CPU
// runner shows parity, not gains). The per-stage wall times land in
// Report.Metrics.
func BenchmarkAnalyzeParallel(b *testing.B) {
	w, _, _ := benchSetup(b)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			an := NewAnalyzer(WithParallelism(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := an.Analyze(w.Dataset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storedBytes is the size of a Dataset's records of one kind, as the
// Dataset stores them: sized by the map's element type, so it follows
// the Dataset's layout.
func storedBytes[E any](byProbe map[atlasdata.ProbeID][]E) int {
	var e E
	n := 0
	for _, s := range byProbe {
		n += len(s) * int(unsafe.Sizeof(e))
	}
	return n
}

// BenchmarkLoadDataset loads a saved seed-77 scale-0.5 world, the size
// every cmd/benchrun workload serves with atlasd -data. B/op is what one
// load allocates; record-B is the loaded records' own in-memory size,
// the floor a load cannot go below. MB/s and ns/record are the pass's
// cost per archive byte and per record line.
func BenchmarkLoadDataset(b *testing.B) {
	w, dir := savedBenchWorld(b)
	// The IPv6 literals are held once each: their bytes and where each ends.
	records := storedBytes(w.Dataset.ConnLogs) + storedBytes(w.Dataset.KRoot) + storedBytes(w.Dataset.Uptime)
	for i := range uint32(w.Dataset.V6.Len()) {
		records += len(w.Dataset.V6.Literal(i)) + int(unsafe.Sizeof(i))
	}
	perRecord := archiveCost(b, w, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadDataset(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "record-B")
	perRecord()
}

// BenchmarkOpenArchive opens the world BenchmarkLoadDataset loads as an
// archive, the way atlasd -data does before it serves: one validating
// pass over the record files that keeps only their index.
func BenchmarkOpenArchive(b *testing.B) {
	w, dir := savedBenchWorld(b)
	perRecord := archiveCost(b, w, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := atlasdata.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		a.Close()
	}
	perRecord()
}

// BenchmarkArchiveDataset materialises the world BenchmarkOpenArchive
// opens, the way atlasd -data answers /api/v1/analysis: the archive pass
// over the open files, records kept.
func BenchmarkArchiveDataset(b *testing.B) {
	w, dir := savedBenchWorld(b)
	a, err := atlasdata.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	perRecord := archiveCost(b, w, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Dataset(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	perRecord()
}

// archiveCost sets b's bytes per op to the size of the archive in dir,
// which holds w, and returns a func that reports the time per record
// line of the benchmark's loop.
func archiveCost(b *testing.B, w *World, dir string) (report func()) {
	b.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			b.Fatal(err)
		}
		if info.Mode().IsRegular() {
			size += info.Size()
		}
	}
	b.SetBytes(size)
	var records int
	for _, es := range w.Dataset.ConnLogs {
		records += len(es)
	}
	for _, ks := range w.Dataset.KRoot {
		records += len(ks)
	}
	for _, us := range w.Dataset.Uptime {
		records += len(us)
	}
	return func() {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
}

// savedBenchWorld generates and saves the seed-77, scale-0.5 world every
// cmd/benchrun workload serves with atlasd -data.
func savedBenchWorld(b *testing.B) (*World, string) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.Scale = 0.5
	w, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := SaveDataset(w.Dataset, dir); err != nil {
		b.Fatal(err)
	}
	return w, dir
}

// benchRecord / benchRecorder capture a dataset's record stream in
// arrival order so the codec benchmarks can pre-encode it outside the
// timer.
type benchRecord struct {
	kind   int // 0 meta, 1 conn, 2 kroot, 3 uptime
	meta   atlasdata.ProbeMeta
	conn   atlasdata.ConnLogEntry
	kroot  atlasdata.KRootRound
	uptime atlasdata.UptimeRecord
}

type benchRecorder struct{ recs []benchRecord }

func (r *benchRecorder) Meta(m atlasdata.ProbeMeta) error {
	r.recs = append(r.recs, benchRecord{kind: 0, meta: m})
	return nil
}
func (r *benchRecorder) ConnLog(e atlasdata.ConnLogEntry) error {
	r.recs = append(r.recs, benchRecord{kind: 1, conn: e})
	return nil
}
func (r *benchRecorder) KRoot(k atlasdata.KRootRound) error {
	r.recs = append(r.recs, benchRecord{kind: 2, kroot: k})
	return nil
}
func (r *benchRecorder) Uptime(u atlasdata.UptimeRecord) error {
	r.recs = append(r.recs, benchRecord{kind: 3, uptime: u})
	return nil
}

const benchBatch = 1024

func encodeWireBatches(b *testing.B, recs []benchRecord) [][]byte {
	b.Helper()
	var batches [][]byte
	var w wire.BatchWriter
	flush := func() {
		if w.Records() > 0 {
			batches = append(batches, append([]byte(nil), w.Bytes()...))
			w.Reset()
		}
	}
	for _, r := range recs {
		var err error
		switch r.kind {
		case 0:
			err = w.Meta(r.meta)
		case 1:
			err = w.ConnLog(r.conn)
		case 2:
			err = w.KRoot(r.kroot)
		case 3:
			err = w.Uptime(r.uptime)
		}
		if err != nil {
			b.Fatal(err)
		}
		if w.Records() >= benchBatch {
			flush()
		}
	}
	flush()
	return batches
}

// BenchmarkStreamIngest measures the live-ingest subsystem at several
// shard counts, reporting sustained records/sec:
//
//   - direct: typed in-process replay (no codec — the apply ceiling)
//   - codec=binary: stream.IngestWire over pre-encoded wire batches —
//     the v2 binary path's decode core
//   - codec=binary/wal: the same into a durable ingester's WAL
func BenchmarkStreamIngest(b *testing.B) {
	w, _, _ := benchSetup(b)
	ds := w.Dataset
	var records int64
	for id := range ds.Probes {
		records += int64(1 + len(ds.ConnLogs[id]) + len(ds.KRoot[id]) + len(ds.Uptime[id]))
	}

	var rec benchRecorder
	if err := ReplayDataset(ds, &rec); err != nil {
		b.Fatal(err)
	}
	wireBatches := encodeWireBatches(b, rec.recs)

	check := func(b *testing.B, ing *stream.Ingester) {
		b.Helper()
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		if got := ing.Snapshot().Records.Total(); got != records {
			b.Fatalf("ingested %d records, want %d", got, records)
		}
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("direct/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS})
				if err := ReplayDataset(ds, ing); err != nil {
					b.Fatal(err)
				}
				check(b, ing)
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
		b.Run(fmt.Sprintf("codec=binary/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS})
				for _, batch := range wireBatches {
					if _, err := ing.IngestWire(ctx, batch); err != nil {
						b.Fatal(err)
					}
				}
				check(b, ing)
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
		// codec=binary plus the admission gate exercised per batch the
		// way the HTTP handler does (pressure check, slot claim,
		// release). The delta against the plain codec=binary run is the
		// uncontended admission overhead (target < 2%, EXPERIMENTS.md).
		b.Run(fmt.Sprintf("codec=binary/admission/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS})
				// HighWater above any reachable fill: the benchmark
				// deliberately saturates the shard queues, and a real
				// server would shed here — the point of this run is the
				// per-batch cost of the check itself, so it must probe
				// the queues but never trip.
				adm := atlasapi.NewAdmission(atlasapi.AdmissionConfig{HighWater: 1.01}, ing.QueuePressure, nil)
				for _, batch := range wireBatches {
					release, reason, ok := adm.Admit("v2")
					if !ok {
						b.Fatalf("uncontended admission shed a batch (%s)", reason)
					}
					_, err := ing.IngestWire(ctx, batch)
					release()
					if err != nil {
						b.Fatal(err)
					}
				}
				check(b, ing)
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
	// codec=binary into a durable ingester, with fsyncs and checkpoints
	// off: the delta against codec=binary/shards=1 is the shard's
	// per-record re-encode and WAL append.
	b.Run("codec=binary/wal/shards=1", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		root := b.TempDir()
		for i := 0; i < b.N; i++ {
			dir := filepath.Join(root, fmt.Sprint(i))
			ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: ds.Pfx2AS,
				WALDir: dir, Sync: wal.SyncNever, CheckpointEvery: -1})
			for _, batch := range wireBatches {
				if _, err := ing.IngestWire(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			check(b, ing)
			b.StopTimer()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
}

// BenchmarkStreamIngestInstrumented is BenchmarkStreamIngest with the
// obs registry attached — the pair measures the instrumentation's
// overhead on the ingest hot path (EXPERIMENTS.md; target < 5%
// throughput delta).
func BenchmarkStreamIngestInstrumented(b *testing.B) {
	w, _, _ := benchSetup(b)
	ds := w.Dataset
	var records int64
	for id := range ds.Probes {
		records += int64(1 + len(ds.ConnLogs[id]) + len(ds.KRoot[id]) + len(ds.Uptime[id]))
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS, Metrics: reg})
				if err := ReplayDataset(ds, ing); err != nil {
					b.Fatal(err)
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
				snap := ing.Snapshot()
				if snap.Records.Total() != records {
					b.Fatalf("ingested %d records, want %d", snap.Records.Total(), records)
				}
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}

// BenchmarkServeConcurrentReaders measures what dashboard-style read
// traffic costs ingest with the serving tier on: the paper-scale record
// stream replays at full speed while N pollers issue conditional GETs
// against the live endpoints at a ~50ms cadence (reusing the ETag from
// their previous poll, the revalidation pattern real dashboards
// produce). The readers=0 run is the baseline; the acceptance target is
// under 5% records/sec regression at readers=1000, which holds because
// reads pin a published generation (two atomic loads) and all pollers
// past the staleness window coalesce into one snapshot barrier.
func BenchmarkServeConcurrentReaders(b *testing.B) {
	w, _, _ := benchSetup(b)
	ds := w.Dataset
	var records int64
	for id := range ds.Probes {
		records += int64(1 + len(ds.ConnLogs[id]) + len(ds.KRoot[id]) + len(ds.Uptime[id]))
	}
	paths := []string{"/api/v1/live/summary", "/api/v1/live/continents"}
	for _, readers := range []int{0, 1000} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			var served, revalidated int64
			for i := 0; i < b.N; i++ {
				ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS})
				tier := serve.NewTier(ing)
				ls := atlasapi.NewLiveServer(ing, atlasapi.WithServeTier(tier))
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						path := paths[r%len(paths)]
						etag := ""
						for {
							req := httptest.NewRequest(http.MethodGet, path, nil)
							if etag != "" {
								req.Header.Set("If-None-Match", etag)
							}
							rec := httptest.NewRecorder()
							ls.ServeHTTP(rec, req)
							if e := rec.Header().Get("ETag"); e != "" {
								etag = e
							}
							atomic.AddInt64(&served, 1)
							if rec.Code == http.StatusNotModified {
								atomic.AddInt64(&revalidated, 1)
							}
							select {
							case <-stop:
								return
							case <-time.After(50 * time.Millisecond):
							}
						}
					}(r)
				}
				if err := ReplayDataset(ds, ing); err != nil {
					b.Fatal(err)
				}
				close(stop)
				wg.Wait()
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
				if got := ing.Snapshot().Records.Total(); got != records {
					b.Fatalf("ingested %d records, want %d", got, records)
				}
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			b.ReportMetric(float64(served)/float64(b.N), "reads")
			b.ReportMetric(float64(revalidated)/float64(b.N), "304s")
		})
	}
}

// --- Ablation benchmarks ---

// BenchmarkAblationFirmwareFilter contrasts the power-outage analysis
// with and without firmware-reboot filtering (§5.2): without it,
// firmware installs masquerade as power outages and dilute P(ac|pw).
func BenchmarkAblationFirmwareFilter(b *testing.B) {
	w, res, _ := benchSetup(b)
	machines := make(map[atlasdata.ProbeID]*core.Machine, len(res.Views))
	reboots := make(map[atlasdata.ProbeID][]core.Reboot, len(res.Views))
	for id := range res.Views {
		machines[id] = core.Detect(w.Dataset, id, nil)
		reboots[id] = machines[id].Reboots
	}
	run := func(filter bool) float64 {
		perDay := core.RebootsPerDay(reboots)
		fwDays := core.DetectFirmwareDays(perDay)
		if !filter {
			fwDays = nil
		}
		count := 0
		for _, m := range machines {
			kept := core.FilterFirmwareReboots(m.Reboots, fwDays)
			count += len(core.PowerOutagesFrom(m.Reboots, m.RebootGaps, kept))
		}
		return float64(count)
	}
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with, "power-outages-filtered")
	b.ReportMetric(without-with, "false-power-outages-removed")
}

// BenchmarkAblationTTFvsRaw contrasts the paper's total-time-fraction
// metric with a raw duration-count distribution (§4.1). The two
// disagree whenever duration lengths are skewed: counts over-weight
// outage-shortened durations (the paper's Table 1 example) while TTF
// weights each duration by the time actually spent in it, which is what
// makes it the right estimator for "how long will this address last".
func BenchmarkAblationTTFvsRaw(b *testing.B) {
	_, res, _ := benchSetup(b)
	ids := core.ByAS(res)[3320]
	b.ResetTimer()
	var ttfMode, rawMode float64
	for i := 0; i < b.N; i++ {
		var durations []core.AddressDuration
		for _, id := range ids {
			durations = append(durations, res.Views[id].Durations()...)
		}
		ttf := core.TTF(durations)
		ttfMode = ttf.MassAt(24)
		// Raw: every duration counts once regardless of length.
		at24, total := 0, 0
		for _, d := range durations {
			total++
			if core.QuantizeHours(d.Hours()) == 24 {
				at24++
			}
		}
		if total > 0 {
			rawMode = float64(at24) / float64(total)
		}
	}
	b.ReportMetric(ttfMode*100, "dtag-mode-ttf-pct")
	b.ReportMetric(rawMode*100, "dtag-mode-rawcount-pct")
}

// BenchmarkAblationMultihomedFilter contrasts address-change counts with
// and without the behavioural multihomed filter (§3.2): uplink
// alternation masquerades as renumbering when the filter is off.
func BenchmarkAblationMultihomedFilter(b *testing.B) {
	w, res, _ := benchSetup(b)
	b.ResetTimer()
	var genuine, naive float64
	for i := 0; i < b.N; i++ {
		genuine = 0
		for _, view := range res.Views {
			genuine += float64(len(view.Changes))
		}
		naive = genuine
		for _, id := range res.ByCategory[core.CatBehaviouralMultihomed] {
			naive += float64(len(core.V4Changes(id, w.Dataset.ConnLogs[id])))
		}
		for _, id := range res.ByCategory[core.CatTaggedMultihomed] {
			naive += float64(len(core.V4Changes(id, w.Dataset.ConnLogs[id])))
		}
	}
	b.ReportMetric(genuine, "changes-filtered")
	b.ReportMetric(naive-genuine, "spurious-changes-avoided")
}

// BenchmarkAblationWireVsBehavioural contrasts dataset generation cost
// with protocol-level address assignment (PPPoE/IPCP and DHCP messages
// marshalled per decision) against the behavioural models. The shapes
// agree (see sim's wire tests); this measures what the fidelity costs.
func BenchmarkAblationWireVsBehavioural(b *testing.B) {
	for _, mode := range []struct {
		name string
		wire bool
	}{{"behavioural", false}, {"wire", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Scale = 0.1
			cfg.WireBackends = mode.wire
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
