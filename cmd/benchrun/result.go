package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json: its name, its unit, the
// direction that is better and, for an end-to-end metric, the share of
// the base's median by which it may get worse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// end-to-end metrics every workload reports (the --trace 0 result line,
// and what -compare judges) and the per-layer metrics of a traced run
// (the --trace 1 result line). README.md defines each per workload.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads ROOT/BENCHMARK.json.
func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: no end_to_end or no per_layer metrics")
	}
	return &s, nil
}

// value is one reported number: a scalar (N measurements, Value their
// median) or a latency distribution (Value its median, Tail its Pct-th
// percentile over N samples).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Tail  float64 `json:"tail,omitempty"`
	Pct   int     `json:"pct,omitempty"`
	N     int     `json:"n"`
}

// result is everything one workload run produced.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Metrics   map[string]value `json:"metrics"`
	Layers    map[string]value `json:"layers,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
}

func newResult(workload string, seed uint64) *result {
	return &result{Workload: workload, Seed: seed, Metrics: map[string]value{}}
}

// scalar records the median of several measurements of one quantity.
func (r *result) scalar(name, unit string, xs ...float64) {
	r.Metrics[name] = value{Value: median(xs), Unit: unit, N: len(xs)}
}

// dist records a latency distribution by its median and tail.
func (r *result) dist(name string, xs []float64) {
	v := value{Value: median(xs), Unit: "ms", N: len(xs)}
	if p := tailPercentile(len(xs)); p > 0 {
		v.Pct, v.Tail = p, quantile(xs, float64(p)/100)
	}
	r.Metrics[name] = v
}

// check counts one correctness check, recording a failure's reason.
func (r *result) check(problems ...string) {
	r.Attempted++
	if len(problems) > 0 {
		r.Failed++
		r.Problems = append(r.Problems, problems...)
	}
}

// addOps folds operation counts in.
func (r *result) addOps(o *opStats) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if err := o.err(); err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
}

func (r *result) correct() bool { return r.Failed == 0 }

func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// printTable writes the human-readable metric table.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d): %d operations and checks, %d failed (error_rate %.4g)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.errorRate())
	fmt.Fprintf(w, "%-44s %-7s %14s %16s %8s\n", "metric", "unit", "median", "tail", "n")
	printRows(w, r.Metrics)
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "-- per layer\n")
		printRows(w, r.Layers)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func printRows(w io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		tail := "-"
		if v.Pct > 0 {
			tail = fmt.Sprintf("p%d=%.4g", v.Pct, v.Tail)
		}
		fmt.Fprintf(w, "%-44s %-7s %14.6g %16s %8d\n", n, v.Unit, v.Value, tail, v.N)
	}
}

// resultLine is the one-line JSON result a single-workload run ends
// stdout with.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON projects a result onto the given metric set. A metric the
// run could not measure is an error, never a silent zero.
func resultJSON(r *result, defs []metricSpec, from map[string]value) (string, error) {
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	var missing []string
	for _, d := range defs {
		v, ok := from[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		line.Metrics[d.Name] = lineMetric{Value: v.Value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%s: no value for %s", r.Workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(line)
	return string(b), err
}
