package dynaddr

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestReportMatchesLiveResult checks the equality LiveResult claims:
// over every report-digest world, the batch Report's AS tables,
// outage figures and analysis-set sizes equal LiveFromBatch's, compared
// as JSON bytes. The Report groups probes from its filter views, the
// live fold from frozen ProbeEvents, so this pins that both give the
// same AS groups and changed-probe sets.
func TestReportMatchesLiveResult(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	raw, err := os.ReadFile("internal/core/testdata/report_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []struct {
			Name    string
			Seed    uint64
			Scale   float64
			Options struct{ TopASes int }
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
			cfg := DefaultConfig()
			cfg.Seed, cfg.Scale = c.Seed, c.Scale
			world, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := NewAnalyzer(WithTopASes(c.Options.TopASes)).Analyze(world.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			live := LiveFromBatch(world.Dataset, LiveOptions{TopASes: c.Options.TopASes})
			pairs := []struct {
				name       string
				batch, got any
			}{
				{"Table5", rep.Table5, live.Table5},
				{"Table5All", rep.Table5All, live.Table5All},
				{"Table6", rep.Table6, live.Table6},
				{"Table7All", rep.Table7All, live.Table7All},
				{"Table7ByAS", rep.Table7ByAS, live.Table7ByAS},
				{"Figure7", rep.Figure7, live.Figure7},
				{"Figure8", rep.Figure8, live.Figure8},
				{"Figure6RebootsPerDay", rep.Figure6RebootsPerDay, live.RebootsPerDay},
				{"Figure6FirmwareDays", rep.Figure6FirmwareDays, live.FirmwareDays},
				{"GeoProbes", len(rep.Filter.GeoProbes), live.Probes},
				{"ASProbes", len(rep.Filter.ASProbes), live.ASProbes},
			}
			for _, p := range pairs {
				want, err := json.Marshal(p.batch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(p.got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: live %s, batch %s", p.name, got, want)
				}
			}
		})
	}
}
