package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"dynaddr"
	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
	"dynaddr/internal/wire"
)

// typedRec is one record as the generator emitted it, kept typed so a
// StreamProducer can be driven with it.
type typedRec struct {
	probe atlasdata.ProbeID
	emit  func(dynaddr.RecordSink) error
}

// typedRecorder captures ReplayDataset's stream in order.
type typedRecorder struct{ recs []typedRec }

func (r *typedRecorder) Meta(m atlasdata.ProbeMeta) error {
	r.recs = append(r.recs, typedRec{m.ID, func(s dynaddr.RecordSink) error { return s.Meta(m) }})
	return nil
}
func (r *typedRecorder) ConnLog(e atlasdata.ConnLogEntry) error {
	r.recs = append(r.recs, typedRec{e.Probe, func(s dynaddr.RecordSink) error { return s.ConnLog(e) }})
	return nil
}
func (r *typedRecorder) KRoot(k atlasdata.KRootRound) error {
	r.recs = append(r.recs, typedRec{k.Probe, func(s dynaddr.RecordSink) error { return s.KRoot(k) }})
	return nil
}
func (r *typedRecorder) Uptime(u atlasdata.UptimeRecord) error {
	r.recs = append(r.recs, typedRec{u.Probe, func(s dynaddr.RecordSink) error { return s.Uptime(u) }})
	return nil
}

func testTraffic(t *testing.T) (*traffic, []typedRec) {
	t.Helper()
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.05
	w, err := dynaddr.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := encodeWorld(w.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	var typed typedRecorder
	if err := dynaddr.ReplayDataset(w.Dataset, &typed); err != nil {
		t.Fatal(err)
	}
	if len(typed.recs) != len(tr.recs) {
		t.Fatalf("typed stream has %d records, encoded %d", len(typed.recs), len(tr.recs))
	}
	return tr, typed.recs
}

// producerBodies returns the POST bodies a default binary StreamProducer
// sends for recs, captured by an httptest server.
func producerBodies(t *testing.T, recs []typedRec) [][]byte {
	t.Helper()
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil || r.URL.Path != atlasapi.RouteStreamRecords || r.Header.Get("Content-Type") != atlasapi.ContentTypeBinary {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		n := 0
		for it := wire.Frames(b); ; n++ {
			_, done, err := it.Next()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if done {
				break
			}
		}
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		fmt.Fprintf(w, "{\"accepted\": %d}\n", n)
	}))
	defer srv.Close()
	p := atlasapi.NewStreamProducer(context.Background(), srv.URL, atlasapi.WithCodec(atlasapi.CodecBinary))
	for _, r := range recs {
		if err := r.emit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return bodies
}

func checkBatches(t *testing.T, what string, got []batch, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pre-encoded batches, producer sent %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].body, want[i]) {
			t.Fatalf("%s: batch %d differs from the producer's POST body (%d vs %d bytes)", what, i, len(got[i].body), len(want[i]))
		}
	}
}

func pick(recs []typedRec, idx []int) []typedRec {
	out := make([]typedRec, len(idx))
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}

// The pre-encoded batches are byte-identical to what a default
// StreamProducer (binary codec, 128-record batches) POSTs for the same
// records, for both orders and every connection.
func TestBatchesMatchProducer(t *testing.T) {
	tr, typed := testTraffic(t)
	for c, seq := range tr.splitConns(tr.probeOrder(), 2) {
		checkBatches(t, fmt.Sprintf("probe order, connection %d", c), tr.batches(seq), producerBodies(t, pick(typed, seq)))
	}
	live := tr.liveOrder()
	checkBatches(t, "live order", tr.batches(live), producerBodies(t, pick(typed, live)))
}

// The live order is time-ordered, keeps every probe's ReplayDataset
// order, and matches an independent stable sort by (time, probe).
func TestLiveOrderKeepsProbeOrder(t *testing.T) {
	tr, _ := testTraffic(t)
	live := tr.liveOrder()
	if len(live) != len(tr.recs) {
		t.Fatalf("live order has %d records, want %d", len(live), len(tr.recs))
	}
	last := map[atlasdata.ProbeID]int{}
	var prev simclock.Time = metaTime
	for _, i := range live {
		r := tr.recs[i]
		if j, ok := last[r.probe]; ok && i <= j {
			t.Fatalf("probe %d: record %d sent after record %d", r.probe, i, j)
		}
		last[r.probe] = i
		if r.at < prev {
			t.Fatalf("live order goes back in time at record %d", i)
		}
		prev = r.at
	}
	want := tr.probeOrder()
	sort.SliceStable(want, func(a, b int) bool {
		ra, rb := tr.recs[want[a]], tr.recs[want[b]]
		if ra.at != rb.at {
			return ra.at < rb.at
		}
		return ra.probe < rb.probe
	})
	for k := range want {
		if want[k] != live[k] {
			t.Fatalf("position %d: merge sends record %d, sort by (time, probe) %d", k, live[k], want[k])
		}
	}
}

// A probe's records all travel on one connection.
func TestProbeNeverSpansConnections(t *testing.T) {
	tr, _ := testTraffic(t)
	for _, order := range [][]int{tr.probeOrder(), tr.liveOrder()} {
		owner := map[atlasdata.ProbeID]int{}
		for c, seq := range tr.splitConns(order, 2) {
			for _, i := range seq {
				p := tr.recs[i].probe
				if o, ok := owner[p]; ok && o != c {
					t.Fatalf("probe %d on connections %d and %d", p, o, c)
				}
				owner[p] = c
			}
		}
		if len(owner) != tr.probes {
			t.Fatalf("%d probes on the connections, world has %d", len(owner), tr.probes)
		}
	}
}

// quartiles follows Python's statistics.quantiles(n=4), the estimator
// the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 2}, 1, 10},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * by
		}
		return out
	}
	lower := metricSpec{Name: "t_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "r", Unit: "1/s", Better: "higher", Bound: 0.1}
	unbounded := metricSpec{Name: "layer_ms", Unit: "ms", Better: "lower"}
	for _, c := range []struct {
		name         string
		m            metricSpec
		base, change []float64
		moreFailures bool
		want         string
	}{
		{"itself", lower, base, base, false, "unchanged"},
		{"faster", lower, base, shift(0.8), false, "gain"},
		{"slower", lower, base, shift(1.3), false, "regression"},
		{"higher is better", higher, base, shift(1.3), false, "gain"},
		{"within bound", lower, base, shift(1.05), false, "unchanged"},
		// One pair has an IQR of zero and one win; it proves nothing.
		{"one pair", lower, base[:1], shift(0.8)[:1], false, "unchanged"},
		// A faster change that fails more operations than the base gains nothing.
		{"faster but failing", lower, base, shift(0.8), true, "unresolved"},
		{"slower and failing", lower, base, shift(1.3), true, "regression"},
		// Without a bound nothing but a gain can be concluded.
		{"unbounded faster", unbounded, base, shift(0.8), false, "gain"},
		{"unbounded slower", unbounded, base, shift(1.3), false, "unresolved"},
		{"unbounded itself", unbounded, base, base, false, "unresolved"},
	} {
		if got := judge(c.m, c.base, c.change, c.moreFailures).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if got := judge(lower, noisy, noisy, false).Verdict; got != "unresolved" {
		t.Errorf("noisy base: %s, want unresolved", got)
	}
}

// Every workload's result line draws its metrics from BENCHMARK.json,
// which must name each once, with a direction, and bound every
// end-to-end metric within the share a comparison accepts.
func TestSpecIsWellFormed(t *testing.T) {
	spec, err := loadSpec("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if m.Name == "" || m.Unit == "" || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %d %+v: want a unique name, a unit and better lower or higher", i, m)
		}
		seen[m.Name] = true
		if i < len(spec.EndToEnd) && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("end-to-end metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
}
