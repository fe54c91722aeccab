package core

import (
	"sync"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
	"dynaddr/internal/simclock"
)

// The integration tests run the complete analysis over a full
// paper-scale synthetic world and check that the pipeline recovers the
// generative ground truth: the paper's experiment, with the oracle the
// paper could only approximate by private ISP communication.

var (
	worldOnce sync.Once
	world     *sim.World
	report    *Report
)

func paperWorld(t *testing.T) (*sim.World, *Report) {
	t.Helper()
	worldOnce.Do(func() {
		cfg := sim.DefaultConfig()
		cfg.Seed = 20160314
		w, err := sim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		world = w
		report = runReport(t, w.Dataset, Config{})
	})
	if world == nil {
		t.Fatal("world generation failed earlier")
	}
	return world, report
}

func TestIntegrationTable2Shape(t *testing.T) {
	_, rep := paperWorld(t)
	for _, c := range []Category{CatNeverChanged, CatDualStack, CatIPv6Only,
		CatTaggedMultihomed, CatBehaviouralMultihomed, CatAnalyzable} {
		if rep.Table2[c] == 0 {
			t.Errorf("Table 2 category %q empty", c)
		}
	}
	// The analyzable sets nest: AS-level within geographic.
	if len(rep.Filter.ASProbes) >= len(rep.Filter.GeoProbes) && len(rep.Filter.ASProbes) != len(rep.Filter.GeoProbes) {
		t.Error("AS-level probes must be a subset of geographic probes")
	}
	if len(rep.Filter.ASProbes) == 0 {
		t.Fatal("no AS-analyzable probes")
	}
}

func TestIntegrationFilterRecall(t *testing.T) {
	w, rep := paperWorld(t)
	// Every dual-stack truth probe must have been filtered as dual-stack
	// or IPv6 (never analyzable).
	for id, truth := range w.Truth.Probes {
		if _, analyzable := rep.Filter.Views[id]; !analyzable {
			continue
		}
		switch truth.Special {
		case sim.DualStack, sim.IPv6Only:
			t.Errorf("probe %d (%v) leaked into the analyzable set", id, truth.Special)
		case sim.Multihomed:
			t.Errorf("probe %d (multihomed) leaked into the analyzable set", id)
		}
	}
	// Movers that survive must be flagged multi-AS (cross-AS change).
	for id, truth := range w.Truth.Probes {
		view, ok := rep.Filter.Views[id]
		if !ok || truth.Special != sim.Mover {
			continue
		}
		if !view.MultiAS {
			t.Errorf("mover %d not flagged multi-AS", id)
		}
	}
}

func TestIntegrationTable5RecoversPeriods(t *testing.T) {
	w, rep := paperWorld(t)
	// Ground truth periods per ASN for the headline ISPs.
	wantD := map[uint32]float64{
		3215: 168, // Orange: weekly
		3320: 24,  // DTAG: daily
	}
	found := map[uint32]bool{}
	for _, row := range rep.Table5 {
		if d, ok := wantD[row.ASN]; ok && row.D == d {
			found[row.ASN] = true
			if row.NPeriodic < 3 {
				t.Errorf("AS%d: only %d periodic probes", row.ASN, row.NPeriodic)
			}
			if float64(row.NPeriodic) < 0.5*float64(row.N) {
				t.Errorf("AS%d: periodic share %d/%d too low", row.ASN, row.NPeriodic, row.N)
			}
		}
	}
	for asn := range wantD {
		if !found[asn] {
			t.Errorf("Table 5 missing AS%d at its ground-truth period", asn)
		}
	}
	// Non-periodic ISPs must not appear: LGI (6830), Verizon (701).
	for _, row := range rep.Table5 {
		if row.ASN == 6830 || row.ASN == 701 {
			t.Errorf("non-periodic AS%d appeared in Table 5 (d=%v)", row.ASN, row.D)
		}
	}
	_ = w
}

func TestIntegrationPeriodicPrecision(t *testing.T) {
	w, rep := paperWorld(t)
	// Probes the pipeline classifies as periodic should genuinely have a
	// forced period, and the detected duration should match it.
	correct, wrongD, falsePos := 0, 0, 0
	for id, view := range rep.Filter.Views {
		pp, ok := ClassifyPeriodic(view.Durations())
		if !ok {
			continue
		}
		truth := w.Truth.Probes[id]
		if truth.Special == sim.Mover {
			continue // mixed regimes; anything goes
		}
		switch {
		case truth.Period == 0:
			falsePos++
		case QuantizeHours(truth.Period.Hours()) == pp.D:
			correct++
		default:
			wrongD++
		}
	}
	total := correct + wrongD + falsePos
	if total == 0 {
		t.Fatal("no periodic probes classified")
	}
	if frac := float64(correct) / float64(total); frac < 0.85 {
		t.Errorf("period recovery precision = %.2f (correct=%d wrongD=%d falsePos=%d)",
			frac, correct, wrongD, falsePos)
	}
}

func TestIntegrationHourHistograms(t *testing.T) {
	_, rep := paperWorld(t)
	if len(rep.HourHists) < 2 {
		t.Fatal("need hour histograms for the top two periodic ASes")
	}
	var dtag, orange *HourHist
	for i := range rep.HourHists {
		switch rep.HourHists[i].ASN {
		case 3320:
			dtag = &rep.HourHists[i]
		case 3215:
			orange = &rep.HourHists[i]
		}
	}
	if dtag == nil || orange == nil {
		t.Fatalf("hour histograms cover %v, want DTAG and Orange", []uint32{rep.HourHists[0].ASN, rep.HourHists[1].ASN})
	}
	frac := func(h *HourHist, lo, hi int) float64 {
		in, total := 0, 0
		for hr, c := range h.Hours {
			total += c
			if hr >= lo && hr < hi {
				in += c
			}
		}
		if total == 0 {
			return 0
		}
		return float64(in) / float64(total)
	}
	// Figure 5: DTAG concentrates changes in the night window.
	if f := frac(dtag, 0, 6); f < 0.55 {
		t.Errorf("DTAG night-window share = %.2f, want > 0.55", f)
	}
	// Figure 4: Orange spread across the day — no 6-hour stretch holds
	// most changes.
	maxWindow := 0.0
	for lo := 0; lo <= 18; lo++ {
		if f := frac(orange, lo, lo+6); f > maxWindow {
			maxWindow = f
		}
	}
	if maxWindow > 0.6 {
		t.Errorf("Orange max 6h-window share = %.2f, want spread", maxWindow)
	}
}

func TestIntegrationFigure6FirmwareDays(t *testing.T) {
	w, rep := paperWorld(t)
	if len(rep.Figure6FirmwareDays) == 0 {
		t.Fatal("no firmware days detected")
	}
	// Every detected day should be within a day of a true push, and most
	// true pushes should be detected.
	matched := 0
	for _, truthDay := range w.Truth.FirmwareDays {
		for _, got := range rep.Figure6FirmwareDays {
			if got >= truthDay-1 && got <= truthDay+1 {
				matched++
				break
			}
		}
	}
	if matched < len(w.Truth.FirmwareDays)-1 {
		t.Errorf("matched %d/%d firmware pushes; detected %v, truth %v",
			matched, len(w.Truth.FirmwareDays), rep.Figure6FirmwareDays, w.Truth.FirmwareDays)
	}
	for _, got := range rep.Figure6FirmwareDays {
		near := false
		for _, truthDay := range w.Truth.FirmwareDays {
			if got >= truthDay-1 && got <= truthDay+2 {
				near = true
			}
		}
		if !near {
			t.Errorf("spurious firmware day %d (truth %v)", got, w.Truth.FirmwareDays)
		}
	}
}

func TestIntegrationPacSeparatesPPPFromDHCP(t *testing.T) {
	_, rep := paperWorld(t)
	meanPac := func(asn uint32) (float64, int) {
		ids := ByAS(rep.Filter)[asn]
		s := rep.Outage.PacSample(ids, false)
		if s.Len() == 0 {
			return 0, 0
		}
		return s.Mean(), s.Len()
	}
	orange, nOrange := meanPac(3215)
	lgi, nLGI := meanPac(6830)
	if nOrange == 0 || nLGI == 0 {
		t.Fatalf("missing samples: orange=%d lgi=%d", nOrange, nLGI)
	}
	if orange < 0.6 {
		t.Errorf("Orange mean P(ac|nw) = %.2f, want high (PPP renumbers on any outage)", orange)
	}
	if lgi > 0.35 {
		t.Errorf("LGI mean P(ac|nw) = %.2f, want low (DHCP keeps addresses)", lgi)
	}
	if orange <= lgi {
		t.Error("PPP ISP must renumber on outages more than DHCP ISP")
	}
}

func TestIntegrationTable6EuropeanPPP(t *testing.T) {
	_, rep := paperWorld(t)
	if len(rep.Table6) == 0 {
		t.Fatal("Table 6 empty")
	}
	// Orange should appear with a high NwOver80 fraction.
	found := false
	for _, row := range rep.Table6 {
		if row.ASN == 3215 {
			found = true
			if row.NwOver80 < 0.5 {
				t.Errorf("Orange NwOver80 = %.2f, want > 0.5", row.NwOver80)
			}
			if row.PwOver80 == 0 {
				t.Error("Orange PwOver80 = 0, want power outages to renumber too")
			}
		}
	}
	if !found {
		t.Error("Orange missing from Table 6")
	}
}

func TestIntegrationFigure9Contrast(t *testing.T) {
	_, rep := paperWorld(t)
	// Build Figure 9 for the paper's pinned pair regardless of the
	// automatic contrast selection.
	orangeBins := rep.Outage.DurationBins(rep.Filter, ByAS(rep.Filter)[3215])
	lgiBins := rep.Outage.DurationBins(rep.Filter, ByAS(rep.Filter)[6830])

	pctShort := func(bins []DurationBinRow) (float64, int) {
		// Renumbering share over outages shorter than one hour (bins 0-4).
		total, ren := 0, 0
		for i := 0; i < 5; i++ {
			total += bins[i].Total
			ren += bins[i].Renumbered
		}
		if total == 0 {
			return 0, 0
		}
		return float64(ren) / float64(total), total
	}
	pctLong := func(bins []DurationBinRow) (float64, int) {
		total, ren := 0, 0
		for i := 8; i < len(bins); i++ { // 12h and beyond
			total += bins[i].Total
			ren += bins[i].Renumbered
		}
		if total == 0 {
			return 0, 0
		}
		return float64(ren) / float64(total), total
	}

	oShort, oN := pctShort(orangeBins)
	lShort, lN := pctShort(lgiBins)
	if oN == 0 || lN == 0 {
		t.Fatalf("no short outages: orange=%d lgi=%d", oN, lN)
	}
	if oShort < 0.6 {
		t.Errorf("Orange renumbers %.0f%% of sub-hour outages, want most", oShort*100)
	}
	if lShort > 0.1 {
		t.Errorf("LGI renumbers %.0f%% of sub-hour outages, want ~none", lShort*100)
	}
	lLong, lLongN := pctLong(lgiBins)
	if lLongN > 0 && lLong <= lShort {
		t.Errorf("LGI long-outage renumbering (%.2f) should exceed short (%.2f)", lLong, lShort)
	}
}

func TestIntegrationTable7PrefixSpread(t *testing.T) {
	_, rep := paperWorld(t)
	all := rep.Table7All
	if all.Changes == 0 {
		t.Fatal("no address changes in Table 7")
	}
	// Paper: ~49% across BGP prefixes overall.
	if f := all.FracBGP(); f < 0.25 || f > 0.75 {
		t.Errorf("overall cross-BGP fraction = %.2f, want roughly half", f)
	}
	// DTAG and Verizon have the lowest spread; Orange among the highest.
	fracOf := func(asn uint32) (float64, bool) {
		for _, r := range rep.Table7ByAS {
			if r.ASN == asn {
				return r.FracBGP(), true
			}
		}
		return 0, false
	}
	orange, ok1 := fracOf(3215)
	dtag, ok2 := fracOf(3320)
	if !ok1 || !ok2 {
		t.Fatal("Orange or DTAG missing from Table 7")
	}
	if orange <= dtag {
		t.Errorf("Orange cross-prefix (%.2f) should exceed DTAG (%.2f)", orange, dtag)
	}
	if all.Unrouted > all.Changes/100 {
		t.Errorf("unrouted endpoints = %d of %d, want under 1%%", all.Unrouted, all.Changes)
	}
}

func TestIntegrationFigure1ContinentContrast(t *testing.T) {
	_, rep := paperWorld(t)
	var eu, na *ASCDF
	for i := range rep.Figure1 {
		switch rep.Figure1[i].Label {
		case "EU":
			eu = &rep.Figure1[i]
		case "NA":
			na = &rep.Figure1[i]
		}
	}
	if eu == nil || na == nil {
		t.Fatalf("Figure 1 continents = %+v", rep.Figure1)
	}
	fracAt := func(c *ASCDF, hours float64) float64 {
		var y float64
		for _, p := range c.CDF {
			if p.X <= hours {
				y = p.Y
			}
		}
		return y
	}
	// Europe spends much of its time in day-scale durations; North
	// America's mass sits in long durations (paper: >50% beyond 50
	// days).
	if euWeek := fracAt(eu, 200); euWeek < 0.3 {
		t.Errorf("EU mass below ~8 days = %.2f, want substantial", euWeek)
	}
	if naWeek := fracAt(na, 200); naWeek > 0.5 {
		t.Errorf("NA mass below ~8 days = %.2f, want under half", naWeek)
	}
}

func TestIntegrationFigure2Membership(t *testing.T) {
	_, rep := paperWorld(t)
	if len(rep.Figure2) < 4 {
		t.Fatalf("Figure 2 has %d ASes", len(rep.Figure2))
	}
	// The deployment-heavy ASes should dominate: Orange, BT, LGI among
	// the top five.
	members := map[uint32]bool{}
	for _, c := range rep.Figure2 {
		members[c.ASN] = true
	}
	for _, asn := range []uint32{3215, 2856, 6830} {
		if !members[asn] {
			t.Errorf("AS%d missing from Figure 2 top set %v", asn, keys(members))
		}
	}
}

func keys(m map[uint32]bool) []uint32 {
	var out []uint32
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestIntegrationTable5AllRow(t *testing.T) {
	_, rep := paperWorld(t)
	if len(rep.Table5All) != 2 {
		t.Fatal("want All rows at 24h and 168h")
	}
	h24, h168 := rep.Table5All[0], rep.Table5All[1]
	if h24.D != 24 || h168.D != 168 {
		t.Fatalf("All rows = %v, %v", h24.D, h168.D)
	}
	// Paper: 193 probes periodic at 24h, 123 at one week — daily beats
	// weekly only because Germany dominates; in our world Orange is the
	// largest single ISP, so just require both populated.
	if h24.NPeriodic == 0 || h168.NPeriodic == 0 {
		t.Errorf("All rows empty: 24h=%d 168h=%d", h24.NPeriodic, h168.NPeriodic)
	}
	// Weekly schedules rarely overrun the period (paper: 94% MAX<=d);
	// daily ones overrun more.
	if h168.FracMaxLeD < h24.FracMaxLeD {
		t.Errorf("weekly MAX<=d (%.2f) should be at least daily's (%.2f)",
			h168.FracMaxLeD, h24.FracMaxLeD)
	}
}

func TestIntegrationGapCausesAllPresent(t *testing.T) {
	_, rep := paperWorld(t)
	var nw, pw, no, changedNoOutage int
	for _, gaps := range rep.Outage.Gaps {
		for _, g := range gaps {
			switch g.Cause {
			case NetworkCause:
				nw++
			case PowerCause:
				pw++
			default:
				no++
				if g.Changed {
					changedNoOutage++
				}
			}
		}
	}
	if nw == 0 || pw == 0 || no == 0 {
		t.Errorf("gap causes missing: nw=%d pw=%d no=%d", nw, pw, no)
	}
	// Periodic renumbering produces changes without outages.
	if changedNoOutage == 0 {
		t.Error("no address changes without outages; periodic renumbering missing")
	}
}

func TestIntegrationProbeASMatchesTruth(t *testing.T) {
	w, rep := paperWorld(t)
	wrong := 0
	for id, view := range rep.Filter.Views {
		if view.ASN == 0 {
			continue
		}
		truth := w.Truth.Probes[id]
		if truth.Special == sim.Mover {
			continue
		}
		// Sibling-pool operators legitimately map to either ASN.
		if uint32(view.ASN) != uint32(truth.ASN) && view.ASN != 200011 {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d probes mapped to the wrong home AS", wrong)
	}
}

func TestIntegrationReportDeterminism(t *testing.T) {
	w, rep := paperWorld(t)
	rep2 := runReport(t, w.Dataset, Config{})
	if len(rep2.Table5) != len(rep.Table5) {
		t.Error("Table 5 differs across identical runs")
	}
	if rep2.Table7All != rep.Table7All {
		t.Error("Table 7 differs across identical runs")
	}
}

func TestIntegrationDualStackDurationIntuition(t *testing.T) {
	// Sanity on simclock-based duration accounting through the whole
	// pipeline: no analyzable probe has a negative or year-exceeding
	// bounded duration.
	_, rep := paperWorld(t)
	year := (365 * simclock.Day).Hours()
	for id, view := range rep.Filter.Views {
		for _, d := range view.Durations() {
			if d.Hours() <= 0 || d.Hours() > year {
				t.Fatalf("probe %d has absurd duration %.1fh", id, d.Hours())
			}
		}
	}
}

func TestIntegrationVerizonLongDurations(t *testing.T) {
	_, rep := paperWorld(t)
	ttfs := ProbeTTFs(rep.Filter)
	g := GroupTTF(ttfs, ByAS(rep.Filter)[701])
	if g.Total() == 0 {
		t.Skip("no Verizon durations bounded this seed")
	}
	// Paper: Verizon has the longest durations of the top ASes; most of
	// its time mass sits beyond two weeks.
	if f := g.FractionAtMost(14 * 24); f > 0.5 {
		t.Errorf("Verizon mass within two weeks = %.2f, want mostly longer", f)
	}
}

func countProbes(ds *atlasdata.Dataset) int { return len(ds.Probes) }
