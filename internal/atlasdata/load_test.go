package atlasdata_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
)

// TestLoadEquivalence checks Load against a generated world: it reads
// back exactly what Save wrote, reads files in any line order into the
// same dataset, and hands out per-probe slices that an append cannot
// overflow into the next probe's records.
func TestLoadEquivalence(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 11
	cfg.Scale = 0.02
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ds) {
		t.Fatal("Load(Save(ds)) differs from ds")
	}

	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"connlogs.tsv", "kroot.tsv", "uptime.tsv"} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	shuffled, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shuffled, ds) {
		t.Fatal("Load of line-shuffled files differs from ds")
	}

	// Probes with k-root rounds, in ID order, sit next to each other in
	// the loaded backing array.
	var ids []atlasdata.ProbeID
	for id := range loaded.KRoot {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) < 2 {
		t.Fatalf("world has %d probes with k-root rounds, want at least 2", len(ids))
	}
	a, b := ids[0], ids[1]
	before := slices.Clone(loaded.KRoot[b])
	loaded.KRoot[a] = append(loaded.KRoot[a], atlasdata.KRootRound{Probe: a, Timestamp: 1, Sent: 3})
	if !reflect.DeepEqual(loaded.KRoot[b], before) {
		t.Errorf("appending to probe %d's rounds overwrote probe %d's", a, b)
	}
}
