package atlasdata_test

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
)

// FuzzProbeArchive feeds arbitrary bytes to ParseProbeArchive, the
// decoder of a dataset directory's probes.json. It must not panic. What
// it accepts is valid metadata with distinct probe IDs, and it survives
// WriteProbeArchive and a second parse unchanged, in ID order.
func FuzzProbeArchive(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.01
	w, err := sim.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := w.Dataset.Save(dir); err != nil {
		f.Fatal(err)
	}
	// The world's archive, cut to its first probes: a large seed makes
	// every input derived from it slow to minimise.
	probes, err := atlasdata.ParseProbeArchive(mustOpen(f, filepath.Join(dir, "probes.json")))
	if err != nil {
		f.Fatal(err)
	}
	var b bytes.Buffer
	if err := atlasdata.WriteProbeArchive(&b, probes[:4]); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		b.String(),
		`[{"id":206,"country_code":"DE","version":3,"tags":["home",""],"connected_days":300.5,"extra":1}]`,
		`[{"id":2,"version":1,"tags":[]},{"id":1,"version":2,"connected_days":-0}]`,
		`[{"id":0,"version":3}]`,
		`[{"id":1,"version":4}]`,
		`[{"id":1,"version":3,"connected_days":-1e-300}]`,
		`[{"id":1,"version":3,"connected_days":1e400}]`,
		`[{"id":9223372036854775807,"version":3},{"id":1,"version":3}]`,
		`[{"id":1,"version":3,"country_code":"\xff\u0000"}]`,
		`[{"id":1,"version":3},{"id":1,"version":2}]`,
		`null`,
		`[]`,
		`{"id":1}`,
		`[{"id":1,"version":3}] trailing`,
	} {
		f.Add([]byte(seed))
	}
	// Its repeated ID is refused, by name.
	if _, err := atlasdata.ParseProbeArchive(strings.NewReader(`[{"id":1,"version":3},{"id":1,"version":2}]`)); err == nil || !strings.Contains(err.Error(), "probe 1 twice") {
		f.Fatalf("archive listing probe 1 twice: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		probes, err := atlasdata.ParseProbeArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := make(map[atlasdata.ProbeID]bool, len(probes))
		for _, p := range probes {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted %+v: %v", p, err)
			}
			if seen[p.ID] {
				t.Fatalf("accepted probe %d twice", p.ID)
			}
			seen[p.ID] = true
		}
		var buf bytes.Buffer
		if err := atlasdata.WriteProbeArchive(&buf, probes); err != nil {
			t.Fatalf("WriteProbeArchive of accepted probes: %v", err)
		}
		again, err := atlasdata.ParseProbeArchive(&buf)
		if err != nil {
			t.Fatalf("written archive does not parse: %v", err)
		}
		want := make([]atlasdata.ProbeMeta, len(probes))
		for i, p := range probes {
			if len(p.Tags) == 0 {
				p.Tags = nil // omitted when empty
			}
			want[i] = p
		}
		slices.SortFunc(want, func(a, b atlasdata.ProbeMeta) int { return cmp.Compare(a.ID, b.ID) })
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("written archive parses as %+v, want %+v", again, want)
		}
	})
}

// mustOpen opens path for reading until the test ends.
func mustOpen(tb testing.TB, path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return f
}
