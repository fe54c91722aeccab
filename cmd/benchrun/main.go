// Command benchrun is the repository's benchmark: it drives real atlasd
// processes over loopback from this one process with at most nproc
// connections, measures each workload's end-to-end metrics, checks the
// served bytes against an in-process reference, and keeps a ledger of
// runs in bench/BENCH_<name>.json. With -trace 1 it also repeats a
// workload in one process with every request traced and runs per-layer
// passes over the workload's own inputs.
//
// Run it from the repository root through run.sh, which builds atlasd
// and benchrun first:
//
//	bash cmd/benchrun/run.sh -seed 77                 # all five workloads, ledger row
//	bash cmd/benchrun/run.sh -seed 77 -trace 1        # plus spans and the per-layer table
//	bash cmd/benchrun/run.sh --workload poll --seed 3 --seconds 8 --trace 0
//	bash cmd/benchrun/run.sh -compare ../parent
//
// See README.md for the workloads, the metrics and the file formats.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository root (holds bench/ and .bench_build/)")
	atlasd := flag.String("atlasd", "", "atlasd binary (default ROOT/.bench_build/bin/atlasd)")
	workload := flag.String("workload", "", "run one workload (and end stdout with its JSON result line), or compare only it")
	seed := flag.Uint64("seed", 77, "world and schedule seed")
	seconds := flag.Float64("seconds", 12, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: also run the traced in-process repeat and the per-layer passes")
	compare := flag.String("compare", "", "root of another checkout to compare this one against, in alternating pairs")
	ledger := flag.String("ledger", "local", "ledger name: rows go to bench/BENCH_<name>.json")
	child := flag.String("analyze-child", "", "internal: run the analyze workload's child over these comma-separated dataset directories")
	resultFile := flag.String("result-file", "", "internal: with -workload, also write the run's every metric as JSON to this file (for -compare)")
	flag.Parse()

	dur := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		if err := analyzeChild(*child, dur); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun: analyze child:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchrun: -seconds must be positive")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchrun: -trace takes 0 or 1")
		return 2
	}

	names := workloadNames
	if *workload != "" {
		if !validWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "benchrun: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 2
	}

	// Children die with us: on a signal, stop every server first.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(130)
	}()
	defer stopAll()

	if *compare != "" {
		return runCompare(*root, *compare, spec, names, *seed, *seconds, *ledger)
	}
	if *atlasd == "" {
		*atlasd = filepath.Join(*root, ".bench_build", "bin", "atlasd")
	}
	if _, err := os.Stat(*atlasd); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun: atlasd binary:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}

	work := filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("seed%d-%d", *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	setupStart := time.Now()
	t, err := buildWorld(*seed, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchrun: seed %d world: %d probes, %d records, %.1f MB on the wire (built in %.1fs)\n",
		*seed, t.probes, len(t.recs), float64(len(t.arena))/1e6, since(setupStart))

	var results []*result
	ok := true
	for _, name := range names {
		// Each workload gets its own directory for logs, WALs and layer
		// passes; the world's dataset is shared.
		wdir := filepath.Join(work, name)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		e := &runEnv{
			ctx: context.Background(), atlasd: *atlasd, self: self, work: wdir,
			seed: *seed, dur: dur, t: t,
			conns: []*http.Client{newConn(), newConn()},
		}
		r, err := runWorkload(e, name)
		closeConns(e.conns)
		stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", name, err)
			return 1
		}
		if *trace == 1 {
			if err := traceWorkload(e, r, *root); err != nil {
				fmt.Fprintf(os.Stderr, "benchrun: %s trace: %v\n", name, err)
				return 1
			}
		}
		r.printTable(os.Stdout)
		results = append(results, r)
		ok = ok && r.correct()
	}

	if *workload != "" {
		defs, from := spec.EndToEnd, results[0].Metrics
		if *trace == 1 {
			// BENCHMARK.json lists with the layers the run metrics that
			// repeat too loosely to bound (README.md, Noise).
			defs, from = spec.PerLayer, maps.Clone(results[0].Metrics)
			maps.Copy(from, results[0].Layers)
		}
		line, err := resultJSON(results[0], defs, from)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		fmt.Println(line)
		if *resultFile != "" {
			b, err := json.Marshal(results[0])
			if err == nil {
				err = os.WriteFile(*resultFile, b, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrun: result file:", err)
				return 1
			}
		}
	} else {
		d := derive(results, t)
		d.print(os.Stdout)
		path, err := appendLedger(*root, *ledger, newRunRow(*root, *seed, *seconds, results, d))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun: ledger:", err)
			return 1
		}
		fmt.Printf("\nledger row appended to %s\n", path)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchrun: correctness checks failed; work directory kept at %s\n", work)
		return 1
	}
	os.RemoveAll(work)
	return 0
}

func validWorkload(n string) bool {
	for _, w := range workloadNames {
		if w == n {
			return true
		}
	}
	return false
}
