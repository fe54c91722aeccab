package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
)

func testDataset(t *testing.T, seed uint64, scale float64) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// runReport runs the analysis over ds and fails the test on error.
func runReport(t *testing.T, ds *atlasdata.Dataset, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// reportDigest is the hex SHA-256 of the report's JSON with the
// schedule-dependent Metrics cleared.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Metrics = nil
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunMatchesSequential is the reference for Run: each case's
// report, at every pool size, equals the others and hashes to the
// digest that the sequential pipeline this scheduler replaced produced
// for the same world and options (testdata/report_digests.json; never
// regenerate it from the code under test).
func TestRunMatchesSequential(t *testing.T) {
	raw, err := os.ReadFile("testdata/report_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []struct {
			Name    string
			Seed    uint64
			Scale   float64
			Options Options
			SHA256  string
		}
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Cases) == 0 {
		t.Fatal("no golden cases")
	}
	for _, c := range golden.Cases {
		t.Run(c.Name, func(t *testing.T) {
			world := testDataset(t, c.Seed, c.Scale)
			var first *Report
			for _, workers := range []int{1, 4, 8} {
				got := runReport(t, world.Dataset, Config{Parallelism: workers, Options: c.Options})
				if got.Metrics == nil || got.Metrics.Parallelism != workers {
					t.Fatalf("workers=%d: missing or wrong metrics: %+v", workers, got.Metrics)
				}
				if d := reportDigest(t, got); d != c.SHA256 {
					t.Errorf("workers=%d: digest %s, want %s", workers, d, c.SHA256)
				}
				got.Metrics = nil
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("workers=%d: report differs from workers=1", workers)
				}
			}
		})
	}
}

// TestRunMetricsCoverStages: Report.Metrics lists Run's three steps in
// run order, each with the probes it processed.
func TestRunMetricsCoverStages(t *testing.T) {
	world := testDataset(t, 12, 0.1)
	rep := runReport(t, world.Dataset, Config{Parallelism: 2})
	res := rep.Filter
	want := []StageMetric{
		{Stage: StepCategories, Records: len(world.Dataset.Probes)},
		{Stage: StepDetect, Records: len(res.GeoProbes)},
		{Stage: StepFold, Records: len(res.GeoProbes)},
	}
	if len(rep.Metrics.Stages) != len(want) {
		t.Fatalf("metrics list %d steps, want %d", len(rep.Metrics.Stages), len(want))
	}
	for i, w := range want {
		m := rep.Metrics.Stages[i]
		if m.Stage != w.Stage || m.Records != w.Records || m.Records == 0 {
			t.Errorf("step %d = %q over %d, want %q over %d", i, m.Stage, m.Records, w.Stage, w.Records)
		}
	}
	if rep.Metrics.Stage(StepDetect) == nil || rep.Metrics.Stage("nope") != nil {
		t.Fatal("Stage lookup broken")
	}
}

func TestRunCancelled(t *testing.T) {
	world := testDataset(t, 14, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, world.Dataset, Config{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled run returned a report")
	}
}
