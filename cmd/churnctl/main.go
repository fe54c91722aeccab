// Command churnctl runs the dynamic-address analysis pipeline over a
// dataset directory (written by cmd/atlasgen) and prints the requested
// table or figure from the paper.
//
// Usage:
//
//	churnctl -data DIR [-parallel N] [-stages LIST] [table1|table2|table5|table6|table7|fig1..fig9|linktype|admin|churn|metrics|all]
//
// With no artefact argument, churnctl prints a short summary. The
// analysis runs as a staged DAG; -parallel bounds its
// worker pool (default GOMAXPROCS) and -stages restricts the run to a
// comma-separated stage subset plus dependencies (default all).
//
// When scraping with -url, the -retry-* flags tune per-fetch retries
// and their jittered exponential backoff, and -allow-failures sets the
// per-scrape error budget: that many probes may fail permanently and be
// skipped (yielding a partial dataset, reported on stderr) before the
// scrape aborts. SIGINT/SIGTERM cancel a scrape promptly.
//
// With -live-analysis (requires -url), churnctl instead queries a live
// atlasd's streaming analysis endpoint and renders the paper answers
// the ingester maintains incrementally — no dataset is scraped and no
// local analysis runs:
//
//	churnctl -url http://host:8042 -live-analysis [table5|table6|table7|fig6|fig7|fig8|churn|summary|all]
//
// With -deadletter, churnctl inspects and drains the ingest tier's
// quarantine logs instead of running any analysis:
//
//	churnctl -deadletter status -url http://host:8042   # live counts
//	churnctl -deadletter status -wal-dir DIR            # offline counts
//	churnctl -deadletter list -wal-dir DIR              # entries as JSON lines
//	churnctl -deadletter drain -wal-dir DIR             # list + truncate
//
// With -cluster, churnctl talks to a multi-node cluster's coordinator:
//
//	churnctl -cluster status -url http://coordinator:8042
//
// prints one row per peer — node ID, readiness state, owned
// partitions, stream version — and exits nonzero if any peer is not
// ready.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"dynaddr"
	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/core"
	"dynaddr/internal/tables"
)

func main() {
	data := flag.String("data", "", "dataset directory")
	url := flag.String("url", "", "scrape an atlasd server instead of loading a directory")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	svgDir := flag.String("svg", "", "also write every figure as SVG into this directory")
	parallel := flag.Int("parallel", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
	stagesFlag := flag.String("stages", "", "comma-separated analysis stages to run (empty or \"all\" = every stage)")
	retryMax := flag.Int("retry-max", 0, "scrape: retries per failed fetch (0 = default 2)")
	retryBase := flag.Duration("retry-base", 0, "scrape: first backoff delay (0 = default 200ms)")
	retryCap := flag.Duration("retry-cap", 0, "scrape: backoff delay ceiling (0 = default 5s)")
	allowFailures := flag.Int("allow-failures", 0, "scrape: probes allowed to fail before aborting (-1 = unlimited)")
	liveAnalysis := flag.Bool("live-analysis", false, "query a live atlasd's streaming analysis endpoint (requires -url); no dataset is scraped")
	deadletter := flag.String("deadletter", "", "dead-letter operation: status (-wal-dir or -url), list (-wal-dir), or drain (-wal-dir)")
	walDir := flag.String("wal-dir", "", "atlasd WAL directory for offline -deadletter operations (stop the server first)")
	clusterOp := flag.String("cluster", "", "cluster operation against a coordinator at -url: status (per-peer ownership, version, readiness)")
	flag.Parse()

	if *deadletter != "" {
		deadletterMain(*deadletter, *walDir, *url)
		return
	}

	if *clusterOp != "" {
		clusterMain(*clusterOp, *url)
		return
	}

	if *liveAnalysis {
		if *url == "" {
			fmt.Fprintln(os.Stderr, "churnctl: -live-analysis requires -url")
			os.Exit(2)
		}
		what := "summary"
		if flag.NArg() > 0 {
			what = flag.Arg(0)
		}
		liveAnalysisMain(*url, *csv, what)
		return
	}

	stages, err := dynaddr.ParseStages(*stagesFlag)
	if err != nil {
		fatal(err)
	}

	var ds *dynaddr.Dataset
	switch {
	case *data != "" && *url != "":
		fmt.Fprintln(os.Stderr, "churnctl: -data and -url are mutually exclusive")
		os.Exit(2)
	case *data != "":
		ds, err = dynaddr.LoadDataset(*data)
	case *url != "":
		// Ctrl-C aborts the scrape promptly, mid-request or mid-backoff.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		client := &atlasapi.Client{
			BaseURL:       *url,
			Retries:       *retryMax,
			Backoff:       backoff.Policy{Base: *retryBase, Max: *retryCap},
			AllowFailures: *allowFailures,
		}
		client.Months, err = client.FetchMonthsContext(ctx)
		if err == nil {
			var srep *atlasapi.ScrapeReport
			ds, srep, err = client.ScrapeAllContext(ctx)
			// The report goes to stderr — stdout stays artefact-only —
			// and only when it has something to say, so clean scrapes
			// remain byte-comparable with -data runs.
			if srep != nil && (srep.Partial() || err != nil) {
				fmt.Fprintln(os.Stderr, "churnctl:", srep)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "churnctl: one of -data or -url is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	rep, err := dynaddr.NewAnalyzer(
		dynaddr.WithParallelism(*parallel),
		dynaddr.WithStages(stages...),
	).Analyze(ds)
	if err != nil {
		fatal(err)
	}
	names := dynaddr.ProfileNames(dynaddr.PaperProfiles())

	if *svgDir != "" {
		written, err := core.WriteFigureSVGs(rep, names, *svgDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("churnctl: wrote %d figures to %s\n", len(written), *svgDir)
	}

	what := "summary"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	emit := func(t *tables.Table) {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal(err)
		}
	}

	artefacts := map[string]func(){
		"table1":    func() { emit(renderTable1(ds, rep)) },
		"table2":    func() { emit(rep.RenderTable2()) },
		"table5":    func() { emit(rep.RenderTable5(names)) },
		"table6":    func() { emit(rep.RenderTable6(names)) },
		"table7":    func() { emit(rep.RenderTable7(names)) },
		"fig1":      func() { emit(rep.RenderFigure1()) },
		"fig2":      func() { emit(rep.RenderFigure2(names)) },
		"fig3":      func() { emit(rep.RenderFigure3(names)) },
		"fig4":      func() { emit(rep.RenderHourHists(names)) },
		"fig5":      func() { emit(rep.RenderHourHists(names)) },
		"fig6":      func() { emit(rep.RenderFigure6()) },
		"fig7":      func() { emit(rep.RenderFigure7(names)) },
		"fig8":      func() { emit(rep.RenderFigure8(names)) },
		"fig9":      func() { emit(rep.RenderFigure9(names)) },
		"linktype":  func() { emit(rep.RenderLinkTypes(names)) },
		"admin":     func() { emit(rep.RenderAdminEvents(names)) },
		"churn":     func() { emit(rep.RenderChurnAndV6()) },
		"country":   func() { emit(rep.RenderByCountry(3)) },
		"blacklist": func() { emit(core.RenderBlacklist(core.AdviseBlacklist(rep, 5), names)) },
		"lease":     func() { emit(core.RenderLeaseEstimates(core.EstimateLeases(rep.Outage, rep.Filter), names)) },
		"metrics":   func() { emit(renderMetrics(rep.Metrics)) },
	}

	switch what {
	case "probe":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "churnctl: probe needs an ID: churnctl -data DIR probe 1234")
			os.Exit(2)
		}
		id, convErr := strconv.Atoi(flag.Arg(1))
		if convErr != nil {
			fatal(convErr)
		}
		drilldown(ds, rep, names, atlasdata.ProbeID(id))
	case "summary":
		fmt.Printf("dataset: %d probes, %d geo-analyzable, %d AS-analyzable\n",
			len(ds.Probes), len(rep.Filter.GeoProbes), len(rep.Filter.ASProbes))
		fmt.Printf("periodic AS rows: %d; outage AS rows: %d; total changes: %d (%.0f%% cross-BGP)\n",
			len(rep.Table5), len(rep.Table6), rep.Table7All.Changes, rep.Table7All.FracBGP()*100)
	case "all":
		order := []string{"table1", "table2", "table5", "table6", "table7",
			"fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
			"country", "linktype", "admin", "churn", "blacklist", "lease"}
		for _, k := range order {
			artefacts[k]()
		}
	default:
		fn, ok := artefacts[what]
		if !ok {
			var known []string
			for k := range artefacts {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "churnctl: unknown artefact %q; known: %v\n", what, known)
			os.Exit(2)
		}
		fn()
	}
}

// liveAnalysisMain fetches the streaming engine's paper answers from a
// running atlasd (-live with analysis on) and renders them with the
// same table shapes the batch pipeline prints — no dataset is scraped
// and no local analysis runs, so the output reflects exactly what the
// ingester holds at the moment of the query.
func liveAnalysisMain(baseURL string, csv bool, what string) {
	resp, err := http.Get(baseURL + "/api/v1/live/analysis")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fatal(fmt.Errorf("server at %s runs without the live analysis engine (atlasd -live -analysis)", baseURL))
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fatal(fmt.Errorf("GET /api/v1/live/analysis: %s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	var res dynaddr.LiveResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		fatal(err)
	}
	names := dynaddr.ProfileNames(dynaddr.PaperProfiles())

	emit := func(t *tables.Table) {
		var err error
		if csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal(err)
		}
	}
	artefacts := map[string]func(){
		"table5": func() { emit(res.RenderTable5(names)) },
		"table6": func() { emit(res.RenderTable6(names)) },
		"table7": func() { emit(res.RenderTable7(names)) },
		"fig6":   func() { emit(res.RenderFigure6()) },
		"fig7":   func() { emit(res.RenderFigure7(names)) },
		"fig8":   func() { emit(res.RenderFigure8(names)) },
		"churn":  func() { emit(res.RenderChurn()) },
	}
	switch what {
	case "summary":
		fmt.Printf("live: %d analyzable probes, %d AS-analyzable\n", res.Probes, res.ASProbes)
		fmt.Printf("periodic AS rows: %d; outage AS rows: %d; total changes: %d (%.0f%% cross-BGP)\n",
			len(res.Table5), len(res.Table6), res.Table7All.Changes, res.Table7All.FracBGP()*100)
	case "all":
		for _, k := range []string{"table5", "table6", "table7", "fig6", "fig7", "fig8", "churn"} {
			artefacts[k]()
		}
	default:
		fn, ok := artefacts[what]
		if !ok {
			var known []string
			for k := range artefacts {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "churnctl: unknown live artefact %q; known: %v (plus summary, all)\n", what, known)
			os.Exit(2)
		}
		fn()
	}
}

// renderTable1 reproduces the paper's Table 1: a sample connection log
// with computed address durations, using the analyzable probe with the
// most 24h-quantised durations (a DTAG-style daily renumberer).
func renderTable1(ds *dynaddr.Dataset, rep *dynaddr.Report) *tables.Table {
	best, bestCount := int64(-1), -1
	for id, view := range rep.Filter.Views {
		count := 0
		for _, d := range view.Durations() {
			if core.QuantizeHours(d.Hours()) == 24 {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = int64(id), count
		}
	}
	t := tables.New("Table 1: sample connection log (first five days)",
		"ID", "Start", "End", "IPAddress", "Dur(h)")
	if best < 0 {
		return t
	}
	view := rep.Filter.Views[atlasdata.ProbeID(best)]
	entries := view.Entries
	limit := 10
	for i, e := range entries {
		if i >= limit {
			break
		}
		dur := "NA"
		if i > 0 && i+1 < len(entries) && i+1 < limit {
			if entries[i+1].Addr != e.Addr && entries[i-1].Addr != e.Addr {
				dur = fmt.Sprintf("%.1f", e.EndTime().Sub(e.StartTime()).Hours())
			}
		}
		t.AddRow(fmt.Sprintf("%d", view.Meta.ID), e.StartTime().String(), e.EndTime().String(), e.V4Addr().String(), dur)
	}
	return t
}

// drilldown prints one probe's story: metadata, filtering verdict, and
// — when analyzable — its address changes with the outage cause the
// pipeline assigned to each gap, plus the periodicity classification.
func drilldown(ds *dynaddr.Dataset, rep *dynaddr.Report, names core.NameFunc, id atlasdata.ProbeID) {
	meta, ok := ds.Probes[id]
	if !ok {
		fmt.Printf("probe %d: not in dataset\n", id)
		return
	}
	fmt.Printf("probe %d: country=%s version=v%d tags=%v connected=%.1f days\n",
		id, meta.Country, meta.Version, meta.Tags, meta.ConnectedDays)

	var category string
	for _, c := range core.Categories {
		for _, pid := range rep.Filter.ByCategory[c] {
			if pid == id {
				category = c.String()
			}
		}
	}
	fmt.Printf("filtering: %s\n", category)

	view, analyzable := rep.Filter.Views[id]
	if !analyzable {
		fmt.Printf("sessions: %d (not analyzable; no further detail)\n", len(ds.ConnLogs[id]))
		return
	}
	if view.ASN != 0 {
		fmt.Printf("home AS: %s (AS%d)\n", names(uint32(view.ASN)), view.ASN)
	} else {
		fmt.Println("home AS: multiple (cross-AS changes discarded from AS-level analysis)")
	}
	durations := view.Durations()
	fmt.Printf("sessions: %d, address changes: %d, bounded durations: %d\n",
		len(view.Entries), len(view.Changes), len(durations))

	if pp, isPeriodic := core.ClassifyPeriodic(durations); isPeriodic {
		fmt.Printf("periodic: yes, d=%.0fh (f=%.2f, MAX<=d=%v, harmonic=%v)\n",
			pp.D, pp.Frac, pp.MaxLeD, pp.Harmonic)
	} else {
		fmt.Println("periodic: no")
	}

	if rep.Outage != nil {
		var nw, pw, no, changed int
		for _, g := range rep.Outage.Gaps[id] {
			switch g.Cause {
			case core.NetworkCause:
				nw++
			case core.PowerCause:
				pw++
			default:
				no++
			}
			if g.Changed {
				changed++
			}
		}
		fmt.Printf("gaps: %d network-outage, %d power-outage, %d no-outage; %d with an address change\n",
			nw, pw, no, changed)
		if st, ok := rep.Outage.Stats[id]; ok {
			if p, has := st.PacNetwork(); has {
				fmt.Printf("P(ac|nw) = %.2f over %d outages\n", p, st.NetworkGaps)
			}
			if p, has := st.PacPower(); has {
				fmt.Printf("P(ac|pw) = %.2f over %d outages\n", p, st.PowerGaps)
			}
		}
	}

	fmt.Println("\nlast 5 address changes:")
	changes := view.Changes
	start := 0
	if len(changes) > 5 {
		start = len(changes) - 5
	}
	for _, ch := range changes[start:] {
		fmt.Printf("  %s  %s -> %s\n", ch.NextStart, ch.From, ch.To)
	}
}

// renderMetrics tabulates a run's per-stage execution record.
func renderMetrics(m *dynaddr.RunMetrics) *tables.Table {
	t := tables.New(fmt.Sprintf("Engine metrics (%d workers)", m.Parallelism),
		"Stage", "Wall", "Records")
	for _, s := range m.Stages {
		t.AddRow(s.Stage, s.Wall.String(), fmt.Sprintf("%d", s.Records))
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "churnctl:", err)
	os.Exit(1)
}
