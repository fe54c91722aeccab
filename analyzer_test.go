package dynaddr

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// goldenDigest returns the recorded report digest of one case in
// internal/core/testdata/report_digests.json: the SHA-256 of the
// report's JSON (Metrics cleared) that the sequential pipeline produced
// before the staged Run replaced it.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("internal/core/testdata/report_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []struct{ Name, SHA256 string }
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, c := range golden.Cases {
		if c.Name == name {
			return c.SHA256
		}
	}
	t.Fatalf("no golden digest %q", name)
	return ""
}

// checkDigest fails the test unless rep, Metrics cleared, hashes to the
// golden digest want.
func checkDigest(t *testing.T, rep *Report, want string) {
	t.Helper()
	if rep.Metrics == nil {
		t.Fatal("no metrics")
	}
	c := *rep
	c.Metrics = nil
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
		t.Errorf("report digest %x, want %s", sum, want)
	}
}

// TestAnalyzerGoldenEquality is the acceptance gate for the Analyzer:
// across several seeded worlds and pool sizes, its Report must hash to
// the golden digest, ignoring only the schedule-describing Metrics. Run
// under -race in CI.
func TestAnalyzerGoldenEquality(t *testing.T) {
	for _, seed := range []uint64{21, 22, 23} {
		world, err := Generate(smallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDigest(t, fmt.Sprintf("seed%d", seed))
		for _, workers := range []int{1, 4} {
			got, err := NewAnalyzer(WithParallelism(workers)).Analyze(world.Dataset)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			checkDigest(t, got, want)
		}
	}
}

func TestAnalyzerOptions(t *testing.T) {
	world, err := Generate(smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	fields, err := NewAnalyzer(
		WithTopASes(3),
		WithFigure3Country("FR"),
		WithFigure3MinYears(1),
	).Analyze(world.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, fields, goldenDigest(t, "seed31-options"))
	if len(fields.Figure2) > 3 {
		t.Errorf("TopASes(3) ignored: %d Figure 2 curves", len(fields.Figure2))
	}
}

// TestAnalyzerNegativeTopASes: a TopASes of zero or less means the
// default, for the batch figures as for the fold's.
func TestAnalyzerNegativeTopASes(t *testing.T) {
	world, err := Generate(smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewAnalyzer(WithTopASes(-1)).Analyze(world.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, rep, goldenDigest(t, "seed21"))
}

func TestAnalyzerContextCancel(t *testing.T) {
	world, err := Generate(smallConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewAnalyzer().AnalyzeContext(ctx, world.Dataset); err == nil {
		t.Fatal("cancelled analysis succeeded")
	}
}

// TestIngesterReexport exercises the root-level live-ingest surface:
// the re-exported constructor, config, and snapshot types.
func TestIngesterReexport(t *testing.T) {
	world, err := Generate(smallConfig(34))
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(StreamConfig{Shards: 2, Pfx2AS: world.Dataset.Pfx2AS})
	if err := ReplayDataset(world.Dataset, ing); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot = ing.Snapshot()
	if snap.Probes == 0 {
		t.Fatal("snapshot saw no probes")
	}
	var counts RecordCounts = snap.Records
	if counts.Total() == 0 {
		t.Fatal("snapshot counted no records")
	}
	for _, asn := range snap.ASNs() {
		var agg *ASAggregate = snap.AS(asn)
		if agg == nil || agg.ASN != asn {
			t.Fatalf("AS(%d) = %+v", asn, agg)
		}
	}
	for _, m := range world.Dataset.Probes {
		if err := ing.Meta(m); err != ErrIngesterClosed {
			t.Fatalf("ingest after Close: err = %v, want ErrIngesterClosed", err)
		}
		break
	}
}
