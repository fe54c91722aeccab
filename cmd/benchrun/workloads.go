package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynaddr/internal/cluster"
)

// Workload parameters. The rates are per-second record rates of the
// open-loop producers; 128-record batches make 50k rec/s about 390 POSTs
// per second.
const (
	ingestShards     = 4
	clusterPeers     = 3
	clusterTotal     = 12
	durableRate      = 50000
	pollRate         = 20000
	clusterRate      = 20000
	pollPollers      = 100
	pollHz           = 5
	clusterPollers   = 20
	clusterHz        = 1
	watchPeriod      = 50 * time.Millisecond
	setupLaunches    = 3  // launches per run behind the setup_s median
	minIngestRounds  = 3  // backfill rounds per ingest run, at least
	maxIngestRounds  = 20 // and at most
	minAnalyzePasses = 3
	// minPolledASProbes keeps the poll workload's AS reads on ASes big
	// enough never to drop to zero analyzable probes mid-stream.
	minPolledASProbes = 5
)

var workloadNames = []string{"ingest", "durable", "poll", "cluster", "analyze"}

// runEnv is what one workload run needs.
type runEnv struct {
	ctx    context.Context
	atlasd string
	self   string // this binary, for the analyze child
	work   string // per-run scratch directory inside the checkout
	seed   uint64
	dur    time.Duration
	t      *traffic
	conns  []*http.Client // nproc keep-alive connections (see newConn)
	polled []string       // the poll workload's routes, for its traced repeat
	corpus []string       // the analyze workload's saved worlds, likewise
}

func runWorkload(e *runEnv, name string) (*result, error) {
	switch name {
	case "ingest":
		return runIngest(e)
	case "durable":
		return runDurable(e)
	case "poll":
		return runPoll(e)
	case "cluster":
		return runCluster(e)
	case "analyze":
		return runAnalyze(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func singleArgs(e *runEnv, extra ...string) []string {
	return append([]string{"-live", "-data", e.t.dir, "-shards", strconv.Itoa(ingestShards), "-ingest-highwater", "-1"}, extra...)
}

// launch starts one server and waits until it is ready.
func (e *runEnv) launch(name string, args []string) (*server, error) {
	s, err := startServer(e.atlasd, e.work, name, args)
	if err != nil {
		return nil, err
	}
	if err := s.waitReady(e.ctx, e.conns[0]); err != nil {
		s.stop(true)
		return nil, err
	}
	return s, nil
}

// setupTimes launches fresh servers n times (each with args from mk)
// and returns their launch-to-ready times, stopping each.
func (e *runEnv) setupTimes(n int, mk func(i int) []string) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		s, err := e.launch(fmt.Sprintf("setup-%d", i), mk(i))
		if err != nil {
			return nil, err
		}
		out = append(out, s.ready)
		s.stop(false)
	}
	return out, nil
}

// ingest: archive backfill of the whole world in probe order, closed
// loop over two connections, each round on a fresh in-memory atlasd.
func runIngest(e *runEnv) (*result, error) {
	r := newResult("ingest", e.seed)
	split := e.t.splitConns(e.t.probeOrder(), 2)
	plan := [][]batch{e.t.batches(split[0]), e.t.batches(split[1])}
	total := float64(records(plan[0]) + records(plan[1]))
	ref, refErr := reference(e.t.ds.Pfx2AS, ingestShards, plan...)
	var setups, rps, cpu, client, rss, ack []float64
	var measured time.Duration
	ops := &opStats{}
	for round := 0; round < maxIngestRounds && (round < minIngestRounds || measured < e.dur); round++ {
		s, err := e.launch(fmt.Sprintf("ingest-%d", round), singleArgs(e))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready)
		before, err := sampleAll([]*server{s})
		if err != nil {
			return nil, err
		}
		start, c0 := time.Now(), cpuSelf()
		lats := make([][]float64, len(plan))
		var wg sync.WaitGroup
		for c := range plan {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lats[c] = closedLoop(e.ctx, e.conns[c], s.base, plan[c], ops)
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		after, err := sampleAll([]*server{s})
		if err != nil {
			return nil, err
		}
		measured += wall
		rps = append(rps, total/wall.Seconds())
		cpu = append(cpu, (after.cpu-before.cpu)/total*1e6)
		client = append(client, (cpuSelf()-c0)/total*1e6)
		rss = append(rss, float64(after.hwm)/float64(e.t.probes))
		for _, l := range lats {
			ack = append(ack, l...)
		}
		r.checkLive(e, s.base, ref, refErr, fmt.Sprintf("round %d", round))
		s.stop(false)
	}
	r.addOps(ops)
	r.scalar("setup_s", "s", setups...)
	r.scalar("records_per_s", "1/s", rps...)
	r.scalar("cpu_us_per_record", "us", cpu...)
	r.scalar("client_cpu_us_per_record", "us", client...)
	r.scalar("rss_kib_per_probe", "KiB", rss...)
	r.dist("ack_ms", ack)
	r.Metrics["op_p50_ms"] = value{Value: r.Metrics["ack_ms"].Value, Unit: "ms", N: len(ack)}
	return r, nil
}

// checkLive quiesces a server and compares it against the reference.
func (r *result) checkLive(e *runEnv, base string, ref *liveArtifacts, refErr error, what string) *liveArtifacts {
	if refErr != nil {
		r.check(fmt.Sprintf("%s: %v", what, refErr))
		return nil
	}
	got, err := quiesce(e.ctx, e.conns[0], base, ref.seq)
	if err != nil {
		r.check(fmt.Sprintf("%s: %v", what, err))
		return nil
	}
	r.check(compareArtifacts(what, got, ref)...)
	return got
}

// paced is the common shape of the open-loop workloads: an optional
// unpaced warm-up, then paced ingest on connection 0 while connection 1
// reads.
type paced struct {
	warm, load []batch
	rate       float64
	probes     int
}

func (e *runEnv) pacedPlan(warmFrac float64, rate float64) paced {
	order := e.t.liveOrder()
	half := int(float64(len(order)) * warmFrac)
	n := min(len(order)-half, int(rate*e.dur.Seconds()))
	p := paced{rate: rate, load: e.t.batches(order[half : half+n]), probes: e.t.distinctProbes(order[:half+n])}
	if half > 0 {
		p.warm = e.t.batches(order[:half])
	}
	return p
}

// durable: live-order open loop at 50k rec/s into a WAL-backed atlasd
// (-fsync 64, default checkpoints) with one summary watcher polling at
// 20 Hz, then a SIGKILL and a restart on the same WAL.
func runDurable(e *runEnv) (*result, error) {
	r := newResult("durable", e.seed)
	plan := e.pacedPlan(0, durableRate)
	ref, refErr := reference(e.t.ds.Pfx2AS, ingestShards, plan.load)
	args := func(i int) []string {
		return singleArgs(e, "-wal-dir", filepath.Join(e.work, fmt.Sprintf("wal-%d", i)), "-fsync", "64")
	}
	setups, err := e.setupTimes(setupLaunches-1, args)
	if err != nil {
		return nil, err
	}
	s, err := e.launch("durable", args(setupLaunches))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.ready)
	ops := &opStats{}
	out, err := e.pacedWithReads(s.base, []*server{s}, plan, artifactPaths[:1], float64(time.Second/watchPeriod), ops)
	if err != nil {
		return nil, err
	}
	r.pacedMetrics(out, plan, setups, ops, "ack_ms")
	total := float64(records(plan.load))
	got := r.checkLive(e, s.base, ref, refErr, "before kill")
	if _, etag, err := fetch(e.ctx, e.conns[0], s.base+"/api/v1/live/summary"); err == nil {
		if gen, ok := etagGen(etag); ok {
			r.scalar("checkpoints_per_mrecord", "count", float64(gen)/total*1e6)
		}
	}
	s.stop(true)
	s2, err := e.launch("durable-recovered", args(setupLaunches))
	if err != nil {
		return nil, err
	}
	defer s2.stop(false)
	r.scalar("recover_s", "s", s2.ready)
	if got != nil {
		again, err := quiesce(e.ctx, e.conns[0], s2.base, got.seq)
		if err != nil {
			r.check("after recovery: " + err.Error())
		} else {
			r.check(compareArtifacts("after recovery", again, got)...)
		}
	}
	return r, nil
}

// poll: after an unpaced warm-up of half the world, live-order ingest at
// 20k rec/s while 100 revalidating pollers read at 5 Hz each.
func runPoll(e *runEnv) (*result, error) {
	r := newResult("poll", e.seed)
	plan := e.pacedPlan(0.5, pollRate)
	ref, refErr := reference(e.t.ds.Pfx2AS, ingestShards, plan.warm, plan.load)
	setups, err := e.setupTimes(setupLaunches-1, func(int) []string { return singleArgs(e) })
	if err != nil {
		return nil, err
	}
	s, err := e.launch("poll", singleArgs(e))
	if err != nil {
		return nil, err
	}
	defer s.stop(false)
	setups = append(setups, s.ready)
	ops := &opStats{}
	closedLoop(e.ctx, e.conns[0], s.base, plan.warm, ops)
	paths, err := e.pollPaths(s.base, ref)
	if err != nil {
		return nil, err
	}
	e.polled = paths
	out, err := e.pacedWithReads(s.base, []*server{s}, plan, paths, pollHz, ops)
	if err != nil {
		return nil, err
	}
	r.pacedMetrics(out, plan, setups, ops, "read_ms")
	r.checkLive(e, s.base, ref, refErr, "after load")
	return r, nil
}

// pollPaths assigns the poll workload's pollers their routes: 40%
// summary, 30% continents, 20% analysis and 10% one AS each. The ASes
// are drawn by seed from those the warm-up made visible that still hold
// at least minPolledASProbes analyzable probes at the end of the stream
// (per the reference), so that no AS read can meet a 404 mid-run when a
// probe changes category. Pollers are shuffled so the routes interleave
// in the schedule.
func (e *runEnv) pollPaths(base string, ref *liveArtifacts) ([]string, error) {
	visible, err := liveASNs(e, base)
	if err != nil {
		return nil, err
	}
	var asns []uint32
	for _, a := range visible {
		if ref == nil || ref.asProbes[a] >= minPolledASProbes {
			asns = append(asns, a)
		}
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("no AS with %d analyzable probes to poll", minPolledASProbes)
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var paths []string
	for i := 0; i < pollPollers; i++ {
		switch {
		case i < pollPollers*40/100:
			paths = append(paths, "/api/v1/live/summary")
		case i < pollPollers*70/100:
			paths = append(paths, "/api/v1/live/continents")
		case i < pollPollers*90/100:
			paths = append(paths, "/api/v1/live/analysis")
		default:
			paths = append(paths, fmt.Sprintf("/api/v1/live/as/%d", asns[rng.Intn(len(asns))]))
		}
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths, nil
}

// clusterPaths gives the cluster workload's pollers their routes: the
// cheap snapshot merges (summary, continents) nine to one against the
// analysis merge, which takes several times longer, so that the single
// read connection stays lightly loaded and a read's latency is the
// coordinator's, not the queue's in front of it.
func clusterPaths() []string {
	paths := make([]string, clusterPollers)
	for i := range paths {
		switch {
		case i < clusterPollers/10:
			paths[i] = "/api/v1/live/analysis"
		case i%2 == 0:
			paths[i] = "/api/v1/live/summary"
		default:
			paths[i] = "/api/v1/live/continents"
		}
	}
	return paths
}

// pacedOut is what a paced phase measured.
type pacedOut struct {
	reads     readResult
	ack, late []float64
	visible   []float64
	wall      time.Duration
	cpu       float64 // servers' CPU seconds over the phase
	clientCPU float64 // this process's CPU seconds over the phase
	hwm       float64 // servers' summed VmHWM at the end of the phase, KiB
}

// pacedWithReads runs the paced ingest on connection 0 and the poll
// schedule on connection 1, both open loop from the same start. servers
// (none for an in-process deployment) are the processes measured.
func (e *runEnv) pacedWithReads(base string, servers []*server, plan paced, paths []string, hz float64, ops *opStats) (pacedOut, error) {
	warmRecords := uint64(records(plan.warm))
	vis := &visibility{}
	before, err := sampleAll(servers)
	if err != nil {
		return pacedOut{}, err
	}
	c0 := cpuSelf()
	t0 := time.Now().Add(10 * time.Millisecond)
	sched := pollSchedule(paths, hz, e.dur)
	var out pacedOut
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.reads = runReads(e.ctx, e.conns[1], base, sched, t0, ops, vis.observed)
	}()
	out.ack, out.late = openLoop(e.ctx, e.conns[0], base, plan.load, plan.rate, t0, ops, func(cum int, at time.Time) {
		vis.acked(warmRecords+uint64(cum), at)
	})
	out.wall = time.Since(t0)
	wg.Wait()
	after, err := sampleAll(servers)
	if err != nil {
		return pacedOut{}, err
	}
	out.cpu, out.clientCPU, out.hwm = after.cpu-before.cpu, cpuSelf()-c0, float64(after.hwm)
	out.visible = vis.result()
	return out, nil
}

// pacedMetrics records the end-to-end metrics of a paced workload;
// op_p50_ms is the median of the named latency distribution.
func (r *result) pacedMetrics(out pacedOut, plan paced, setups []float64, ops *opStats, op string) {
	load := float64(records(plan.load))
	r.addOps(ops)
	r.scalar("setup_s", "s", setups...)
	r.scalar("records_per_s", "1/s", load/out.wall.Seconds())
	r.scalar("cpu_us_per_record", "us", out.cpu/load*1e6)
	r.scalar("client_cpu_us_per_record", "us", out.clientCPU/load*1e6)
	r.scalar("rss_kib_per_probe", "KiB", out.hwm/float64(plan.probes))
	r.readMetrics(out.reads)
	r.dist("ack_ms", out.ack)
	r.dist("late_ms", out.late)
	r.dist("visible_ms", out.visible)
	r.Metrics["op_p50_ms"] = value{Value: r.Metrics[op].Value, Unit: "ms", N: r.Metrics[op].N}
}

// readMetrics records a read schedule's latencies and 304 share.
func (r *result) readMetrics(rr readResult) {
	r.dist("read_ms", rr.lat)
	for route, lat := range rr.latByPath {
		r.dist("read_ms."+route, lat)
	}
	if n := rr.ok + rr.notMod; n > 0 {
		r.scalar("not_modified_ratio", "ratio", float64(rr.notMod)/float64(n))
		r.scalar("read_200_bytes", "B", float64(rr.bytes200)/float64(max(rr.ok, 1)))
	}
}

// liveASNs lists the ASes in the server's current summary.
func liveASNs(e *runEnv, base string) ([]uint32, error) {
	body, _, err := fetch(e.ctx, e.conns[0], base+"/api/v1/live/summary")
	if err != nil {
		return nil, err
	}
	var sum struct {
		ASes []uint32 `json:"ases"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		return nil, err
	}
	var out []uint32
	for _, a := range sum.ASes {
		if a != 0 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("warm-up produced no ASes")
	}
	return out, nil
}

// cluster: a coordinator over three in-memory peers (12 partitions);
// the poll workload's warm-up, then live-order ingest at 20k rec/s and
// 20 pollers at 1 Hz, everything through the coordinator.
func runCluster(e *runEnv) (*result, error) {
	r := newResult("cluster", e.seed)
	plan := e.pacedPlan(0.5, clusterRate)
	ref, refErr := reference(e.t.ds.Pfx2AS, clusterTotal, plan.warm, plan.load)
	var setups []float64
	var servers []*server
	for i := 0; i < setupLaunches; i++ {
		ss, setup, err := e.launchCluster(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < setupLaunches-1 {
			for _, s := range ss {
				s.stop(false)
			}
			continue
		}
		servers = ss
	}
	defer func() {
		for _, s := range servers {
			s.stop(false)
		}
	}()
	coord := servers[len(servers)-1]
	ops := &opStats{}
	closedLoop(e.ctx, e.conns[0], coord.base, plan.warm, ops)
	out, err := e.pacedWithReads(coord.base, servers, plan, clusterPaths(), clusterHz, ops)
	if err != nil {
		return nil, err
	}
	r.pacedMetrics(out, plan, setups, ops, "read_ms")
	r.checkLive(e, coord.base, ref, refErr, "after load")
	return r, nil
}

// launchCluster starts the peers and the coordinator concurrently and
// returns them (coordinator last) with the launch to all-ready time.
func (e *runEnv) launchCluster(round int) ([]*server, float64, error) {
	ids := make([]string, clusterPeers)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	ring, err := cluster.NewRing(ids, clusterTotal)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var servers []*server
	var specs []string
	fail := func(err error) ([]*server, float64, error) {
		for _, s := range servers {
			s.stop(true)
		}
		return nil, 0, err
	}
	for _, id := range ids {
		parts := "none"
		if owned := ring.Partitions(id); len(owned) > 0 {
			strs := make([]string, len(owned))
			for i, p := range owned {
				strs[i] = strconv.Itoa(p)
			}
			parts = strings.Join(strs, ",")
		}
		s, err := startServer(e.atlasd, e.work, fmt.Sprintf("cluster-%d-%s", round, id),
			[]string{"-live", "-data", e.t.dir, "-node-id", id, "-partitions-total", strconv.Itoa(clusterTotal),
				"-partitions", parts, "-ingest-highwater", "-1"})
		if err != nil {
			return fail(err)
		}
		servers = append(servers, s)
		specs = append(specs, id+"="+s.base)
	}
	coord, err := startServer(e.atlasd, e.work, fmt.Sprintf("cluster-%d-coord", round),
		[]string{"-coordinator", "-peers", strings.Join(specs, ","), "-partitions-total", strconv.Itoa(clusterTotal)})
	if err != nil {
		return fail(err)
	}
	servers = append(servers, coord)
	for _, s := range servers {
		if err := s.waitReady(e.ctx, e.conns[0]); err != nil {
			return fail(err)
		}
	}
	return servers, since(start), nil
}
