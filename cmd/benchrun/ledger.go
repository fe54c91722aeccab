package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dynaddr"
)

// The ledger: bench/BENCH_<name>.json holds a JSON array of rows, one per
// full run or -compare session, each with enough provenance to tell
// whether two rows are comparable at all.

// provenance identifies the code, machine and toolchain behind a row.
type provenance struct {
	Time       string  `json:"time"`
	GitRev     string  `json:"git_rev"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WorldScale float64 `json:"world_scale"`
	Estimator  string  `json:"estimator"`
}

func newProvenance(root string, seed uint64, seconds float64, estimator string) provenance {
	host, _ := os.Hostname()
	return provenance{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitRev:     gitRev(root),
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Seconds:    seconds,
		WorldScale: worldScale,
		Estimator:  estimator,
	}
}

// gitRev names the checkout's commit, marked dirty when the work tree
// differs; "unknown" outside a git work tree.
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// runRow is the ledger row of a full run.
type runRow struct {
	Kind string `json:"kind"`
	provenance
	Workloads map[string]*result `json:"workloads"`
	Derived   *derived           `json:"derived"`
}

func newRunRow(root string, seed uint64, seconds float64, results []*result, d *derived) runRow {
	row := runRow{
		Kind:       "run",
		provenance: newProvenance(root, seed, seconds, "per-run median of rounds or samples; tail = highest of p99/p95/p90 with >= 10 samples beyond"),
		Workloads:  map[string]*result{},
		Derived:    d,
	}
	for _, r := range results {
		row.Workloads[r.Workload] = r
	}
	return row
}

// appendLedger appends a row to bench/BENCH_<name>.json.
func appendLedger(root, name string, row any) (string, error) {
	path := filepath.Join(root, "bench", "BENCH_"+name+".json")
	var rows []json.RawMessage
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rows); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return "", err
	}
	b, err := json.Marshal(row)
	if err != nil {
		return "", err
	}
	rows = append(rows, b)
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(out, '\n'), 0o644)
}

// derived is the report-only headline: how many probes one core and one
// GiB sustain in real time, per live workload.
type derived struct {
	// RecordsPerProbeSecond is the arrival rate one probe produces: a
	// k-root round every 240 s (the paper's cadence) plus the world's
	// own session, uptime and metadata records per probe-second.
	RecordsPerProbeSecond float64               `json:"records_per_probe_second"`
	Rows                  map[string]derivedRow `json:"rows"`
	Binds                 string                `json:"binds"`
	MemTotalGiB           float64               `json:"mem_total_gib"`
}

type derivedRow struct {
	ProbesPerCore float64 `json:"probes_per_core"`
	ProbesPerGiB  float64 `json:"probes_per_gib"`
	// HostProbes is what this host's cores and memory each sustain; the
	// smaller one binds.
	HostProbesCPU float64 `json:"host_probes_cpu"`
	HostProbesMem float64 `json:"host_probes_mem"`
}

// kRootCadence is the paper's k-root round interval per probe.
const kRootCadence = 240.0

func derive(results []*result, t *traffic) *derived {
	start, end := dynaddr.DefaultConfig().Interval()
	probeSeconds := float64(t.probes) * float64(end.Sub(start))
	var nonKRoot int
	for id := range t.ds.Probes {
		nonKRoot += 1 + len(t.ds.ConnLogs[id]) + len(t.ds.Uptime[id])
	}
	d := &derived{
		RecordsPerProbeSecond: 1/kRootCadence + float64(nonKRoot)/probeSeconds,
		Rows:                  map[string]derivedRow{},
		MemTotalGiB:           memTotalGiB(),
	}
	var bindCPU, bindMem int
	for _, r := range results {
		if r.Workload == "analyze" {
			continue
		}
		cpu, rss := r.Metrics["cpu_us_per_record"].Value, r.Metrics["rss_kib_per_probe"].Value
		if cpu <= 0 || rss <= 0 {
			continue
		}
		row := derivedRow{
			ProbesPerCore: 1e6 / (cpu * d.RecordsPerProbeSecond),
			ProbesPerGiB:  (1 << 20) / rss,
		}
		row.HostProbesCPU = row.ProbesPerCore * float64(runtime.NumCPU())
		row.HostProbesMem = row.ProbesPerGiB * d.MemTotalGiB
		if row.HostProbesCPU < row.HostProbesMem {
			bindCPU++
		} else {
			bindMem++
		}
		d.Rows[r.Workload] = row
	}
	switch {
	case len(d.Rows) == 0:
		d.Binds = "unknown"
	case bindMem == 0:
		d.Binds = "cpu"
	case bindCPU == 0:
		d.Binds = "memory"
	default:
		d.Binds = "mixed"
	}
	return d
}

func (d *derived) print(w io.Writer) {
	fmt.Fprintf(w, "\n== derived headline (report only, not gated): %.4g records per probe-second (k-root every %.0fs + the world's other records)\n",
		d.RecordsPerProbeSecond, kRootCadence)
	fmt.Fprintf(w, "%-10s %16s %16s %20s %20s\n", "workload", "probes_per_core", "probes_per_gib", "host_probes_cpu", "host_probes_mem")
	for _, name := range workloadNames {
		row, ok := d.Rows[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-10s %16.0f %16.0f %20.0f %20.0f\n", name, row.ProbesPerCore, row.ProbesPerGiB, row.HostProbesCPU, row.HostProbesMem)
	}
	fmt.Fprintf(w, "binds first on this host (%d cores, %.1f GiB): %s\n", runtime.NumCPU(), d.MemTotalGiB, d.Binds)
}

// memTotalGiB reads MemTotal from /proc/meminfo.
func memTotalGiB() float64 {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == "MemTotal" {
			return float64(parseKiB(v)) / (1 << 20)
		}
	}
	return 0
}
