package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynaddr"
)

// The analyze workload's corpus: analyzeWorlds worlds of analyzeScale,
// all resident, analyzed one after another in passes. A world's
// analysis cost follows its analyzable probes, which vary by about ±10%
// between seeds at this size, and the host's speed varies within
// seconds; a pass over several worlds, repeated for the whole run,
// averages both.
const (
	analyzeWorlds = 4
	analyzeScale  = 0.25
)

// analyze: the batch engine (NewAnalyzer at nproc parallelism) over a
// corpus of saved worlds, in a child process so its CPU and memory are
// measured like a server's. One pass analyzes every world once; the
// pass is the operation op_p50_ms times.
func runAnalyze(e *runEnv) (*result, error) {
	r := newResult("analyze", e.seed)
	var dirs []string
	recs, probes := 0, 0
	for i := 0; i < analyzeWorlds; i++ {
		cfg := dynaddr.DefaultConfig()
		cfg.Seed = e.seed ^ uint64(i)*0x9E3779B97F4A7C15
		cfg.Scale = analyzeScale
		w, err := dynaddr.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating analyze world %d: %w", i, err)
		}
		dir := filepath.Join(e.work, fmt.Sprintf("analyze-%d", i))
		if err := dynaddr.SaveDataset(w.Dataset, dir); err != nil {
			return nil, err
		}
		for id := range w.Dataset.Probes {
			recs += 1 + len(w.Dataset.ConnLogs[id]) + len(w.Dataset.KRoot[id]) + len(w.Dataset.Uptime[id])
		}
		dirs, probes = append(dirs, dir), probes+len(w.Dataset.Probes)
	}
	e.corpus = dirs

	cmd := exec.CommandContext(e.ctx, e.self, "-analyze-child", strings.Join(dirs, ","),
		"-seconds", strconv.FormatFloat(e.dur.Seconds(), 'f', -1, 64))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyze child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("analyze child output: %w", err)
	}
	n := len(rep.Passes)
	if n == 0 {
		return nil, fmt.Errorf("analyze child made no passes")
	}
	passMS, rps, cpu := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, s := range rep.Passes {
		passMS[i] = s * 1e3
		rps[i] = float64(recs) / s
		cpu[i] = rep.CPU[i] / float64(recs) * 1e6
	}
	r.Attempted += n
	r.scalar("setup_s", "s", rep.Loads...)
	r.scalar("records_per_s", "1/s", rps...)
	r.scalar("cpu_us_per_record", "us", cpu...)
	r.scalar("rss_kib_per_probe", "KiB", float64(rep.HWM)/float64(probes))
	r.scalar("analyze_s", "s", rep.Passes...)
	r.dist("pass_ms", passMS)
	r.Metrics["op_p50_ms"] = value{Value: r.Metrics["pass_ms"].Value, Unit: "ms", N: n}
	r.check(rep.Problems...)
	return r, nil
}

// childReport is what the analyze child prints: seconds per load of
// the first world, the seconds and CPU seconds of each pass, and its
// resident high-water mark at the end.
type childReport struct {
	Loads    []float64 `json:"loads"`
	Passes   []float64 `json:"passes"`
	CPU      []float64 `json:"cpu"`
	HWM      int64     `json:"hwm_kib"`
	Problems []string  `json:"problems,omitempty"`
}

// analyzeChild loads the corpus (the first world setupLaunches times,
// the setup_s sample), then makes passes over it for dur (at least
// minAnalyzePasses), checking that every report of a world equals the
// world's first.
func analyzeChild(list string, dur time.Duration) error {
	var rep childReport
	var corpus []*dynaddr.Dataset
	for k, dir := range strings.Split(list, ",") {
		loads := 1
		if k == 0 {
			loads = setupLaunches
		}
		var ds *dynaddr.Dataset
		for i := 0; i < loads; i++ {
			ds = nil
			runtime.GC()
			t := time.Now()
			loaded, err := dynaddr.LoadDataset(dir)
			if err != nil {
				return err
			}
			if k == 0 {
				rep.Loads = append(rep.Loads, since(t))
			}
			ds = loaded
		}
		corpus = append(corpus, ds)
	}

	an := dynaddr.NewAnalyzer(dynaddr.WithParallelism(runtime.NumCPU()))
	first := make([]*dynaddr.Report, len(corpus))
	start := time.Now()
	for len(rep.Passes) < minAnalyzePasses || time.Since(start) < dur {
		c0, t := cpuSelf(), time.Now()
		for k, ds := range corpus {
			got, err := an.Analyze(ds)
			if err != nil {
				return err
			}
			got.Metrics = nil // per-stage timings differ run to run
			if first[k] == nil {
				first[k] = got
			} else if !reflect.DeepEqual(got, first[k]) {
				rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d: world %d's report differs from its first", len(rep.Passes), k))
			}
		}
		rep.Passes = append(rep.Passes, since(t))
		rep.CPU = append(rep.CPU, cpuSelf()-c0)
	}
	end, err := sample(os.Getpid())
	if err != nil {
		return err
	}
	rep.HWM = end.hwm
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// cpuSelf is this process's user+system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
