package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// -compare: the change is this checkout, the base another checkout of
// the same repository. Both sides run identical benchmark code — this
// directory's sources, built a second time against the other checkout's
// packages — and each side's own atlasd, in alternating pairs on the
// same seeds.

// comparePairs is the number of alternating pairs per workload: a gain
// needs at least 9 of 10 wins.
const comparePairs = 10

// side is one build of the benchmark.
type side struct {
	name, benchrun, atlasd string
}

func runCompare(root, other string, spec *benchSpec, names []string, seed uint64, seconds float64, ledger string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchrun: compare:", err)
		return 1
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return fail(err)
	}
	base, err := buildBase(absRoot, other)
	if err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	change := side{name: "change", benchrun: self, atlasd: filepath.Join(absRoot, ".bench_build", "bin", "atlasd")}

	row := compareRow{
		Kind:       "compare",
		provenance: newProvenance(root, seed, seconds, fmt.Sprintf("%d alternating pairs on seeds %d..%d; per-metric median of runs, IQR of the base; gain needs >= 90%% pair wins, a median difference beyond the base IQR and no more failed operations than the base", comparePairs, seed, seed+comparePairs-1)),
		BaseRev:    gitRev(other),
		Workloads:  map[string]*workloadCompare{},
	}
	status := 0
	for _, w := range names {
		wc := &workloadCompare{Metrics: map[string]*verdict{}}
		vals := map[string]map[string][]float64{"base": {}, "change": {}}
		for i := 0; i < comparePairs; i++ {
			order := []side{base, change}
			if i%2 == 1 {
				order = []side{change, base}
			}
			for _, sd := range order {
				r, err := runSide(absRoot, sd, w, seed+uint64(i), seconds)
				if err != nil {
					return fail(fmt.Errorf("%s %s seed %d: %w", sd.name, w, seed+uint64(i), err))
				}
				if !r.correct() {
					fmt.Fprintf(os.Stderr, "benchrun: compare: %s %s seed %d: %d of %d operations failed\n", sd.name, w, seed+uint64(i), r.Failed, r.Attempted)
					status = 1
				}
				if sd.name == "base" {
					wc.BaseFailed += r.Failed
				} else {
					wc.ChangeFailed += r.Failed
				}
				for k, m := range r.Metrics {
					vals[sd.name][k] = append(vals[sd.name][k], m.Value)
				}
			}
		}
		row.Workloads[w] = wc
		fmt.Printf("\n== compare %s (%d pairs; failed operations: base %d, change %d)\n%-20s %14s %14s %9s %9s %6s  %s\n",
			w, comparePairs, wc.BaseFailed, wc.ChangeFailed, "metric", "base", "change", "delta", "base_iqr", "wins", "verdict")
		// Every bounded metric, and the unbounded ones an untraced run
		// measures (the speed metrics BENCHMARK.json lists as per-layer).
		judged := append([]metricSpec(nil), spec.EndToEnd...)
		for _, m := range spec.PerLayer {
			if len(vals["base"][m.Name]) > 0 {
				judged = append(judged, m)
			}
		}
		for _, m := range judged {
			v := judge(m, vals["base"][m.Name], vals["change"][m.Name], wc.ChangeFailed > wc.BaseFailed)
			wc.Metrics[m.Name] = v
			if v.Verdict == "regression" {
				status = 1
			}
			fmt.Printf("%-20s %14.6g %14.6g %+8.2f%% %8.2f%% %3d/%-2d  %s\n",
				m.Name, v.BaseMedian, v.ChangeMedian, 100*v.Delta, 100*v.BaseSpread, v.Wins, comparePairs, v.Verdict)
		}
	}
	path, err := appendLedger(root, ledger, row)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("\nledger row appended to %s\n", path)
	return status
}

// compareRow is the ledger row of a -compare session.
type compareRow struct {
	Kind string `json:"kind"`
	provenance
	BaseRev   string                      `json:"base_rev"`
	Workloads map[string]*workloadCompare `json:"workloads"`
}

// workloadCompare is one workload's comparison: each side's failed
// operations over all its runs and each judged metric's verdict.
type workloadCompare struct {
	BaseFailed   int                 `json:"base_failed"`
	ChangeFailed int                 `json:"change_failed"`
	Metrics      map[string]*verdict `json:"metrics"`
}

// verdict is one metric's comparison on one workload, raw runs included.
type verdict struct {
	Base         []float64 `json:"base"`
	Change       []float64 `json:"change"`
	BaseMedian   float64   `json:"base_median"`
	ChangeMedian float64   `json:"change_median"`
	BaseQ1       float64   `json:"base_q1"`
	BaseQ3       float64   `json:"base_q3"`
	Delta        float64   `json:"delta"`       // change vs base median, as a share; positive is better
	BaseSpread   float64   `json:"base_spread"` // base IQR as a share of its median
	Wins         int       `json:"wins"`        // pairs the change won, ties counting for neither
	Bound        float64   `json:"bound"`
	Verdict      string    `json:"verdict"` // gain, regression, unresolved, unchanged
}

// judge applies the benchmark's rules: a gain needs all comparePairs
// pairs, the change winning at least 9/10 of them, its median differing
// from the base's by more than the base's interquartile range, and no
// more failed operations on the change side than on the base
// (moreFailures); a regression is a median worse than the base's by
// more than the metric's bound; otherwise a metric whose base spread
// exceeds the bound, or that would be a gain but for the failures, is
// unresolved, not unchanged, unless every change run beats every base
// run. A metric without a bound (a per-layer one) can only gain or stay
// unresolved: nothing fixes how much worse it may get.
func judge(m metricSpec, base, change []float64, moreFailures bool) *verdict {
	v := &verdict{Base: base, Change: change, Bound: m.Bound}
	n := min(len(base), len(change))
	if n == 0 {
		v.Verdict = "missing"
		return v
	}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	v.BaseMedian, v.ChangeMedian = median(base), median(change)
	v.BaseQ1, v.BaseQ3 = quartiles(base)
	v.BaseSpread = (v.BaseQ3 - v.BaseQ1) / math.Abs(v.BaseMedian)
	v.Delta = sign * (v.ChangeMedian - v.BaseMedian) / math.Abs(v.BaseMedian)
	for i := 0; i < n; i++ {
		if sign*(change[i]-base[i]) > 0 {
			v.Wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	iqr := v.BaseQ3 - v.BaseQ1
	better := n >= comparePairs && v.Delta > 0 && 10*v.Wins >= 9*n && math.Abs(v.ChangeMedian-v.BaseMedian) > iqr
	switch {
	case better && !moreFailures:
		v.Verdict = "gain"
	case m.Bound == 0:
		v.Verdict = "unresolved"
	case -v.Delta > m.Bound:
		v.Verdict = "regression"
	case better || v.BaseSpread > m.Bound && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// buildBase builds the other checkout's atlasd and this benchmark's
// sources against the other checkout's packages, into .bench_build/compare.
func buildBase(root, other string) (side, error) {
	absOther, err := filepath.Abs(other)
	if err != nil {
		return side{}, err
	}
	if _, err := os.Stat(filepath.Join(absOther, "go.mod")); err != nil {
		return side{}, fmt.Errorf("%s is not a checkout of this repository: %w", other, err)
	}
	dir := filepath.Join(root, ".bench_build", "compare")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return side{}, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "cmd", "benchrun", "go.mod"))
	if err != nil {
		return side{}, err
	}
	var out []string
	for _, line := range strings.Split(string(mod), "\n") {
		if strings.HasPrefix(line, "replace dynaddr =>") {
			line = "replace dynaddr => " + strconv.Quote(absOther)
		}
		out = append(out, line)
	}
	modfile := filepath.Join(dir, "base.mod")
	if err := os.WriteFile(modfile, []byte(strings.Join(out, "\n")), 0o644); err != nil {
		return side{}, err
	}
	s := side{name: "base", benchrun: filepath.Join(dir, "benchrun"), atlasd: filepath.Join(dir, "atlasd")}
	steps := []*exec.Cmd{
		exec.Command("go", "build", "-o", s.atlasd, "./cmd/atlasd"),
		exec.Command("go", "build", "-modfile", modfile, "-o", s.benchrun, "."),
	}
	steps[0].Dir = absOther
	steps[1].Dir = filepath.Join(root, "cmd", "benchrun")
	for _, c := range steps {
		c.Stdout, c.Stderr = os.Stderr, os.Stderr
		if err := c.Run(); err != nil {
			return side{}, fmt.Errorf("building the base (%s in %s): %w", strings.Join(c.Args, " "), c.Dir, err)
		}
	}
	return s, nil
}

// runSide runs one workload once on one side, untraced, and reads back
// its every metric. A run whose checks failed still yields its result.
func runSide(root string, s side, workload string, seed uint64, seconds float64) (*result, error) {
	path := filepath.Join(root, ".bench_build", "compare", "result.json")
	os.Remove(path)
	cmd := exec.Command(s.benchrun, "-root", root, "-atlasd", s.atlasd, "-result-file", path,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	b, rerr := os.ReadFile(path)
	var r result
	if rerr == nil {
		rerr = json.Unmarshal(b, &r)
	}
	if rerr != nil {
		if err == nil {
			err = rerr
		}
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return &r, nil
}
