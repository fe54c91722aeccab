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

// runReport runs every stage over ds and fails the test on error.
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

func TestRunMetricsCoverStages(t *testing.T) {
	world := testDataset(t, 12, 0.1)
	rep := runReport(t, world.Dataset, Config{Parallelism: 2})
	if got, want := len(rep.Metrics.Stages), len(AllStages); got != want {
		t.Fatalf("metrics cover %d stages, want %d", got, want)
	}
	for i, s := range AllStages {
		m := rep.Metrics.Stages[i]
		if m.Stage != string(s) {
			t.Fatalf("stage %d = %q, want %q (canonical order)", i, m.Stage, s)
		}
		if m.Records == 0 {
			t.Errorf("stage %q processed no records", m.Stage)
		}
	}
	if rep.Metrics.Stage("filter") == nil || rep.Metrics.Stage("nope") != nil {
		t.Fatal("Stage lookup broken")
	}
}

func TestRunStageSubset(t *testing.T) {
	world := testDataset(t, 13, 0.1)
	rep := runReport(t, world.Dataset, Config{
		Parallelism: 2,
		Stages:      []Stage{StagePrefix},
	})
	// Prefix pulls in filter transitively; nothing else runs.
	if rep.Filter == nil || rep.Table7All.Changes == 0 {
		t.Fatal("selected stages did not run")
	}
	if rep.Outage != nil || rep.Figure1 != nil || rep.Table5 != nil {
		t.Fatal("unselected stages ran")
	}
	want := []string{"filter", "prefix"}
	if len(rep.Metrics.Stages) != len(want) {
		t.Fatalf("metrics list %d stages, want %d", len(rep.Metrics.Stages), len(want))
	}
	for i, name := range want {
		if rep.Metrics.Stages[i].Stage != name {
			t.Fatalf("metrics[%d] = %q, want %q", i, rep.Metrics.Stages[i].Stage, name)
		}
	}
}

func TestRunUnknownStage(t *testing.T) {
	world := testDataset(t, 13, 0.1)
	if _, err := Run(context.Background(), world.Dataset, Config{Stages: []Stage{"bogus"}}); err == nil {
		t.Fatal("unknown stage accepted")
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

func TestClosure(t *testing.T) {
	got, err := Closure([]Stage{StageFigures})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageFilter, StageTTF, StagePeriodic, StageFigures}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Closure(figures) = %v, want %v", got, want)
	}
	all, err := Closure(nil)
	if err != nil || !reflect.DeepEqual(all, AllStages) {
		t.Fatalf("Closure(nil) = %v, %v", all, err)
	}
	if _, err := Closure([]Stage{"bogus"}); err == nil {
		t.Fatal("unknown stage accepted")
	}
}

func TestParseStages(t *testing.T) {
	got, err := ParseStages(" ttf, outage ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Stage{StageTTF, StageOutage}) {
		t.Fatalf("ParseStages = %v", got)
	}
	for _, empty := range []string{"", "all"} {
		if got, err := ParseStages(empty); err != nil || got != nil {
			t.Fatalf("ParseStages(%q) = %v, %v", empty, got, err)
		}
	}
	if _, err := ParseStages("filter,bogus"); err == nil {
		t.Fatal("unknown stage accepted")
	}
}
