package pfx2as_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/sim"
)

// FuzzParseText feeds arbitrary bytes to ParseText, the decoder of a
// dataset directory's pfx2as snapshot files. It must not panic. What it
// accepts must survive WriteText and a second parse unchanged, and a
// table NewTable builds from it must answer Lookup as its linear scan
// does at the edges of every prefix.
func FuzzParseText(f *testing.F) {
	b, err := os.ReadFile(filepath.Join(seedWorld(f), "pfx2as-201501.txt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(b),
		"# comment\n\n  10.0.0.0\t8\t701\n10.1.0.0 16 3320_701\n10.2.0.0\t16\t174,3356\r\n",
		"0.0.0.0\t0\t1\n255.255.255.255\t32\t4294967295\n10.0.0.0\t8\t701\n10.0.0.0\t8\t702",
		"10.0.0.1\t33\t1\n10.0.0.1\t-1\t1\n10.0.0.1\t8\t4294967296\n10.0.0.1\t8\t-1",
		"10.0.0.1\t8\n10.0.0.256\t8\t1\n10.0.0.1\t8\t1\t2\n10.0.0.1\t+8\t_1",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := pfx2as.ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := pfx2as.WriteText(&buf, entries); err != nil {
			t.Fatalf("WriteText of accepted entries: %v", err)
		}
		again, err := pfx2as.ParseText(&buf)
		if err != nil || !reflect.DeepEqual(again, entries) {
			t.Fatalf("written entries parse back as %v, %v; want %v", again, err, entries)
		}
		tbl, err := pfx2as.NewTable(entries)
		if err != nil {
			return // conflicting origins
		}
		for _, e := range tbl.Entries() {
			for _, a := range []ip4.Addr{e.Prefix.First(), e.Prefix.Last()} {
				asn, pfx, ok := tbl.Lookup(a)
				lasn, lpfx, lok := tbl.LookupLinear(a)
				if !ok || asn != lasn || pfx != lpfx || ok != lok {
					t.Fatalf("Lookup(%v) = %v %v %v, linear scan %v %v %v", a, asn, pfx, ok, lasn, lpfx, lok)
				}
			}
		}
	})
}

// seedWorld saves a small generated world into a temporary directory
// and returns the directory.
func seedWorld(f *testing.F) string {
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
	return dir
}
