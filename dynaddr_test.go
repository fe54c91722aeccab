package dynaddr

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynaddr/internal/core"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = 0.15
	return cfg
}

// analyze runs the analysis over ds with default options.
func analyze(t *testing.T, ds *Dataset) *Report {
	t.Helper()
	rep, err := NewAnalyzer().Analyze(ds)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFacadeEndToEnd(t *testing.T) {
	world, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, world.Dataset)
	if len(rep.Filter.GeoProbes) == 0 {
		t.Fatal("no analyzable probes")
	}
	if rep.Table7All.Changes == 0 {
		t.Fatal("no address changes")
	}
}

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	world, err := Generate(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := SaveDataset(world.Dataset, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Probes, world.Dataset.Probes) {
		t.Error("probe metadata did not round-trip")
	}
	// Saving the loaded dataset writes the same files, byte for byte:
	// k-root rounds stored without their probe ID get it back.
	again := filepath.Join(t.TempDir(), "again")
	if err := SaveDataset(loaded, again); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"probes.json", "connlogs.tsv", "kroot.tsv", "uptime.tsv"} {
		a, errA := os.ReadFile(filepath.Join(dir, name))
		b, errB := os.ReadFile(filepath.Join(again, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs after Save, Load, Save (%d vs %d bytes; %v, %v)", name, len(a), len(b), errA, errB)
		}
	}
	// The analysis over the loaded dataset must match the in-memory one.
	repA := analyze(t, world.Dataset)
	repB := analyze(t, loaded)
	if repA.Table7All != repB.Table7All {
		t.Errorf("Table 7 differs after round trip: %+v vs %+v", repA.Table7All, repB.Table7All)
	}
	if len(repA.Table5) != len(repB.Table5) {
		t.Errorf("Table 5 row counts differ: %d vs %d", len(repA.Table5), len(repB.Table5))
	}
	for _, c := range core.Categories {
		if repA.Table2[c] != repB.Table2[c] {
			t.Errorf("Table 2 category %v differs: %d vs %d", c, repA.Table2[c], repB.Table2[c])
		}
	}
}

func TestNamesResolvers(t *testing.T) {
	world, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	names := Names(world)
	if got := names(3320); got != "DTAG" {
		t.Errorf("Names(3320) = %q, want DTAG", got)
	}
	if got := names(999999); got != "" {
		t.Errorf("unknown ASN should resolve empty, got %q", got)
	}
	if Names(nil) != nil {
		t.Error("Names(nil) should be nil")
	}

	pn := ProfileNames(PaperProfiles())
	if got := pn(3215); got != "Orange" {
		t.Errorf("ProfileNames(3215) = %q", got)
	}
	if got := pn(200011); got == "" {
		t.Error("sibling ASN should resolve via ProfileNames")
	}
}

func TestFromStd(t *testing.T) {
	if FromStd(90e9) != 90*Second { // 90s in nanoseconds
		t.Errorf("FromStd(90s) = %v", FromStd(90e9))
	}
	if Day != 24*Hour || Week != 7*Day || Minute != 60*Second {
		t.Error("re-exported duration constants inconsistent")
	}
}

func TestDefaultConfigMatchesPaperShape(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.FirmwareDays) != 5 {
		t.Errorf("default world has %d firmware pushes, paper observed 5", len(cfg.FirmwareDays))
	}
	if len(PaperProfiles()) < 30 {
		t.Error("paper profile registry too small")
	}
}
