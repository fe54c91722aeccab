// Command experiments regenerates every table and figure of the paper
// from a freshly generated paper-scale world, and prints a
// paper-vs-measured comparison for each experiment's shape criteria —
// the source of EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-artefacts]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"dynaddr"
	"dynaddr/internal/core"
	"dynaddr/internal/stats"
)

type check struct {
	id       string
	name     string
	paper    string
	measured string
	pass     bool
}

func main() {
	seed := flag.Uint64("seed", 20160314, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	artefacts := flag.Bool("artefacts", false, "also print every rendered table and figure")
	flag.Parse()

	cfg := dynaddr.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	world, err := dynaddr.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	rep, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	names := dynaddr.Names(world)

	checks := runChecks(rep)
	fmt.Println("| ID | Check | Paper | Measured | Verdict |")
	fmt.Println("|----|-------|-------|----------|---------|")
	failures := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "DIVERGES"
			failures++
		}
		fmt.Printf("| %s | %s | %s | %s | %s |\n", c.id, c.name, c.paper, c.measured, verdict)
	}
	fmt.Printf("\n%d/%d shape checks pass\n", len(checks)-failures, len(checks))

	if *artefacts {
		fmt.Println()
		rep.RenderTable2().Render(os.Stdout)
		fmt.Println()
		rep.RenderTable5(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderTable6(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderTable7(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure1().Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure2(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure3(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderHourHists(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure6().Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure7(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure8(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderFigure9(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderLinkTypes(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderAdminEvents(names).Render(os.Stdout)
		fmt.Println()
		rep.RenderChurnAndV6().Render(os.Stdout)
	}

	if failures > 0 {
		os.Exit(1)
	}
}

func runChecks(rep *dynaddr.Report) []check {
	var out []check
	add := func(id, name, paper, measured string, pass bool) {
		out = append(out, check{id, name, paper, measured, pass})
	}

	// ---- Table 2 ----
	geo, as := len(rep.Filter.GeoProbes), len(rep.Filter.ASProbes)
	add("T2", "filtering yields nested analyzable sets",
		"3,038 geographic > 2,272 AS-level",
		fmt.Sprintf("%d geographic > %d AS-level", geo, as),
		geo > as && as > 0)
	nonEmpty := true
	for _, c := range []core.Category{core.CatNeverChanged, core.CatDualStack,
		core.CatIPv6Only, core.CatTaggedMultihomed, core.CatBehaviouralMultihomed} {
		if rep.Table2[c] == 0 {
			nonEmpty = false
		}
	}
	add("T2", "every filter category populated", "all rows non-zero",
		fmt.Sprintf("never=%d dual=%d v6=%d tagged=%d behavioural=%d",
			rep.Table2[core.CatNeverChanged], rep.Table2[core.CatDualStack],
			rep.Table2[core.CatIPv6Only], rep.Table2[core.CatTaggedMultihomed],
			rep.Table2[core.CatBehaviouralMultihomed]),
		nonEmpty)

	// ---- Table 5 ----
	findRow := func(asn uint32, d float64) (core.ASPeriodicRow, bool) {
		for _, r := range rep.Table5 {
			if r.ASN == asn && r.D == d {
				return r, true
			}
		}
		return core.ASPeriodicRow{}, false
	}
	orange, okO := findRow(3215, 168)
	add("T5", "Orange periodic at one week",
		"d=168h, 111/122 periodic",
		fmt.Sprintf("d=168h, %d/%d periodic", orange.NPeriodic, orange.N),
		okO && float64(orange.NPeriodic) > 0.5*float64(orange.N))
	dtag, okD := findRow(3320, 24)
	add("T5", "DTAG periodic at 24h",
		"d=24h, 51/63 periodic, 96% f>0.5",
		fmt.Sprintf("d=24h, %d/%d periodic, %.0f%% f>0.5", dtag.NPeriodic, dtag.N, dtag.FracOver50*100),
		okD && dtag.FracOver50 > 0.6)
	bt, okB := findRow(2856, 337)
	add("T5", "BT weakly periodic at two weeks",
		"d=337h, 13/67 periodic (partial deployment)",
		fmt.Sprintf("d=337h, %d/%d periodic", bt.NPeriodic, bt.N),
		okB && bt.NPeriodic < bt.N/2)
	noLGI := true
	for _, r := range rep.Table5 {
		if r.ASN == 6830 || r.ASN == 701 {
			noLGI = false
		}
	}
	add("T5", "LGI and Verizon absent (not periodic)", "absent", boolStr(noLGI), noLGI)
	week := rep.Table5All[1]
	day := rep.Table5All[0]
	add("T5", "weekly schedules overrun less than daily",
		"MAX<=d: 94% weekly vs 44% daily",
		fmt.Sprintf("MAX<=d: %.0f%% weekly vs %.0f%% daily", week.FracMaxLeD*100, day.FracMaxLeD*100),
		week.FracMaxLeD >= day.FracMaxLeD)
	add("T5", "harmonics explain most overruns",
		"Harmonic: 98% weekly, 90% daily",
		fmt.Sprintf("Harmonic: %.0f%% weekly, %.0f%% daily", week.FracHarmonic*100, day.FracHarmonic*100),
		week.FracHarmonic > 0.7 && day.FracHarmonic > 0.7)

	// ---- Figure 1 ----
	var eu, na *core.ASCDF
	for i := range rep.Figure1 {
		switch rep.Figure1[i].Label {
		case "EU":
			eu = &rep.Figure1[i]
		case "NA":
			na = &rep.Figure1[i]
		}
	}
	if eu != nil && na != nil {
		euShort := cdfAt(eu.CDF, 200)
		naShort := cdfAt(na.CDF, 200)
		add("F1", "EU day-scale durations vs NA week+-scale",
			"EU mode at 24h (f=0.16); NA majority beyond 50 days",
			fmt.Sprintf("EU mass<=200h %.2f; NA mass<=200h %.2f", euShort, naShort),
			euShort > naShort && naShort < 0.5)
	} else {
		add("F1", "EU and NA present", "both", "missing", false)
	}

	// ---- Figure 2 ----
	members := map[uint32]bool{}
	for _, c := range rep.Figure2 {
		members[c.ASN] = true
	}
	add("F2", "top-AS set holds Orange, DTAG, BT, LGI",
		"Orange, DTAG, BT, LGI, Verizon",
		fmt.Sprintf("%v", keysOf(members)),
		members[3215] && members[3320] && members[2856] && members[6830])
	add("F2", "Orange spends most time at one week",
		"55% of total duration at 168h",
		fmt.Sprintf("%.0f%% at 168h", massAt(rep, 3215, 168)*100),
		massAt(rep, 3215, 168) > 0.35)
	add("F2", "DTAG spends most time at 24h",
		"76% of total duration at 24h",
		fmt.Sprintf("%.0f%% at 24h", massAt(rep, 3320, 24)*100),
		massAt(rep, 3320, 24) > 0.5)

	// ---- Figure 3 ----
	germanDaily := 0
	for _, c := range rep.Figure3 {
		g := groupTTF(rep, c.ASN)
		if g.MassAt(24) > 0.25 {
			germanDaily++
		}
	}
	add("F3", "several German ISPs renumber daily",
		"DTAG 77%, Telefonica 76%/74%, Vodafone 29% at 24h",
		fmt.Sprintf("%d of %d German ASes with f_24 > 0.25", germanDaily, len(rep.Figure3)),
		germanDaily >= 2)
	kabelStable := true
	for _, c := range rep.Figure3 {
		if c.ASN == 31334 || c.ASN == 29562 {
			if g := groupTTF(rep, c.ASN); g.FractionAtMost(336) > 0.5 {
				kabelStable = false
			}
		}
	}
	add("F3", "Kabel ISPs keep addresses beyond two weeks",
		">90% of time in durations over two weeks", boolStr(kabelStable), kabelStable)

	// ---- Figures 4/5 ----
	var dtagHist, orangeHist *core.HourHist
	for i := range rep.HourHists {
		switch rep.HourHists[i].ASN {
		case 3320:
			dtagHist = &rep.HourHists[i]
		case 3215:
			orangeHist = &rep.HourHists[i]
		}
	}
	if dtagHist != nil && orangeHist != nil {
		dn := nightShare(dtagHist)
		on := maxSixHourShare(orangeHist)
		add("F4/F5", "DTAG synchronised at night, Orange free-running",
			"~3/4 of DTAG changes in hours 0-6; Orange even",
			fmt.Sprintf("DTAG night share %.0f%%; Orange max 6h-window %.0f%%", dn*100, on*100),
			dn > 0.55 && on < 0.6)
	} else {
		add("F4/F5", "hour histograms for DTAG and Orange", "both", "missing", false)
	}

	// ---- Figure 6 ----
	add("F6", "firmware pushes detected from reboot spikes",
		"5 pushes in 2015",
		fmt.Sprintf("%d detected at days %v", len(rep.Figure6FirmwareDays), rep.Figure6FirmwareDays),
		len(rep.Figure6FirmwareDays) >= 4 && len(rep.Figure6FirmwareDays) <= 6)

	// ---- Figures 7/8 and Table 6 ----
	orangePac := meanPac(rep, 3215, false)
	lgiPac := meanPac(rep, 6830, false)
	add("F7", "PPP ISPs renumber on network outages, DHCP ISPs do not",
		"half of Orange/DTAG probes at P=1; LGI/Verizon low",
		fmt.Sprintf("mean P(ac|nw): Orange %.2f, LGI %.2f", orangePac, lgiPac),
		orangePac > 0.6 && lgiPac < 0.35)
	orangePw := meanPac(rep, 3215, true)
	lgiPw := meanPac(rep, 6830, true)
	add("F8", "power outages behave like network outages",
		"Orange/DTAG high, LGI/Verizon low",
		fmt.Sprintf("mean P(ac|pw): Orange %.2f, LGI %.2f", orangePw, lgiPw),
		orangePw > 0.5 && lgiPw < 0.4)
	var t6Orange *core.ASOutageRow
	for i := range rep.Table6 {
		if rep.Table6[i].ASN == 3215 {
			t6Orange = &rep.Table6[i]
		}
	}
	if t6Orange != nil {
		add("T6", "Orange's probes renumber on both outage kinds",
			"79% nw>0.8, 77% pw>0.8",
			fmt.Sprintf("%.0f%% nw>0.8, %.0f%% pw>0.8", t6Orange.NwOver80*100, t6Orange.PwOver80*100),
			t6Orange.NwOver80 > 0.5 && t6Orange.PwOver80 > 0.3)
	} else {
		add("T6", "Orange in Table 6", "present", "missing", false)
	}
	european := true
	for _, r := range rep.Table6 {
		if r.ASN == 701 || r.ASN == 7922 {
			european = false
		}
	}
	add("T6", "heavy outage-renumbering is European",
		"all Table 6 ISPs in Europe", boolStr(european), european)

	// ---- Figure 9 ----
	orangeBins := binsFor(rep, 3215)
	lgiBins := binsFor(rep, 6830)
	oShort := shortShare(orangeBins)
	lShort := shortShare(lgiBins)
	lLong := longShare(lgiBins)
	add("F9", "Orange renumbers even sub-5-minute outages",
		"91% of <5m outages renumbered",
		fmt.Sprintf("%.0f%% of sub-hour outages renumbered", oShort*100),
		oShort > 0.6)
	add("F9", "LGI keeps addresses across short outages",
		"<3% of <=1h outages renumbered",
		fmt.Sprintf("%.0f%% of sub-hour outages renumbered", lShort*100),
		lShort < 0.1)
	add("F9", "LGI renumbering grows with outage duration",
		">25% of >=12h outages renumbered",
		fmt.Sprintf("%.0f%% of >=12h outages renumbered", lLong*100),
		lLong > 0.15 && lLong > lShort)

	// ---- Table 7 ----
	all := rep.Table7All
	add("T7", "about half of changes cross BGP prefixes",
		"48.9% of 166,644 changes",
		fmt.Sprintf("%.1f%% of %d changes", all.FracBGP()*100, all.Changes),
		all.FracBGP() > 0.25 && all.FracBGP() < 0.75)
	oFrac := fracOf(rep, 3215)
	dFrac := fracOf(rep, 3320)
	add("T7", "Orange spreads prefixes more than DTAG",
		"68% vs 24%",
		fmt.Sprintf("%.0f%% vs %.0f%%", oFrac*100, dFrac*100),
		oFrac > dFrac)
	add("T7", "a third of changes escape even the enclosing /8",
		"33.5% across /8s, below the 48.9% across BGP prefixes",
		fmt.Sprintf("%.1f%% across /8s, %.1f%% across BGP", all.FracS8()*100, all.FracBGP()*100),
		all.FracS8() > 0.1 && all.FracS8() < all.FracBGP())

	// ---- Extensions (paper §8 future work, built here) ----
	linkOf := func(asn uint32) core.LinkType {
		for _, r := range rep.LinkTypes {
			if r.ASN == asn {
				return r.Type
			}
		}
		return core.LinkUnknown
	}
	add("X1", "link-type inference separates Orange (PPP) from LGI (DHCP)",
		"§5.3: outage response reveals the access technology",
		fmt.Sprintf("Orange=%v LGI=%v", linkOf(3215), linkOf(6830)),
		linkOf(3215) == core.LinkPPP && linkOf(6830) == core.LinkDHCP)
	adminOK := len(rep.AdminEvents) >= 1
	for _, e := range rep.AdminEvents {
		if e.ASN != 200090 {
			adminOK = false
		}
	}
	add("X2", "administrative renumbering detected, no false alarms",
		"paper found one instance in 2015",
		fmt.Sprintf("%d event(s): %+v", len(rep.AdminEvents), rep.AdminEvents),
		adminOK)
	add("X3", "dynamic renumbering drives daily address-set churn",
		"Richter et al.: ~8%/day across the whole IPv4 space",
		fmt.Sprintf("%.0f%%/day over a renumbering-heavy probe population", rep.ChurnMean*100),
		rep.ChurnMean > 0.05 && rep.ChurnMean < 0.95)
	if rep.V6 != nil {
		add("X4", "client IPv6 addresses are mostly ephemeral",
			"Plonka & Berger: >90% ephemeral; RFC 4941 rotates daily",
			fmt.Sprintf("%.0f%% ephemeral, %d rotating probes", rep.V6.EphemeralShare*100, rep.V6.RotatingProbes),
			rep.V6.EphemeralShare > 0.8 && rep.V6.RotatingProbes > 0)
	}

	// X8: regenerate a smaller world with wire-level protocol backends
	// (real PPPoE/IPCP and DHCP exchanges) and require the headline
	// shape to survive the substitution.
	wireCfg := dynaddr.DefaultConfig()
	wireCfg.Seed = 8
	wireCfg.Scale = 0.3
	wireCfg.WireBackends = true
	if wireWorld, err := dynaddr.Generate(wireCfg); err == nil {
		wireRep, err := dynaddr.NewAnalyzer().Analyze(wireWorld.Dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		found := false
		for _, row := range wireRep.Table5 {
			if row.ASN == 3320 && row.D == 24 {
				found = true
			}
		}
		add("X8", "protocol-level assignment reproduces the shapes",
			"§2's PPPoE/IPCP and DHCP mechanisms, run as actual packet exchanges",
			fmt.Sprintf("wire-mode world: DTAG 24h row present = %v (%d Table 5 rows)", found, len(wireRep.Table5)),
			found)
	} else {
		add("X8", "protocol-level assignment reproduces the shapes", "wire world generates",
			fmt.Sprintf("generation failed: %v", err), false)
	}

	return out
}

func boolStr(b bool) string {
	if b {
		return "holds"
	}
	return "violated"
}

func cdfAt(cdf []stats.Point, hours float64) float64 {
	var y float64
	for _, p := range cdf {
		if p.X <= hours {
			y = p.Y
		}
	}
	return y
}

// keysOf returns m's keys in ascending order, so the report does not
// depend on map iteration order.
func keysOf(m map[uint32]bool) []uint32 {
	var out []uint32
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func groupTTF(rep *dynaddr.Report, asn uint32) interface {
	MassAt(float64) float64
	FractionAtMost(float64) float64
} {
	ttfs := core.ProbeTTFs(rep.Filter)
	return core.GroupTTF(ttfs, core.ByAS(rep.Filter)[asn])
}

func massAt(rep *dynaddr.Report, asn uint32, d float64) float64 {
	return groupTTF(rep, asn).MassAt(d)
}

func meanPac(rep *dynaddr.Report, asn uint32, power bool) float64 {
	s := rep.Outage.PacSample(core.ByAS(rep.Filter)[asn], power)
	if s.Len() == 0 {
		return -1
	}
	return s.Mean()
}

func binsFor(rep *dynaddr.Report, asn uint32) []core.DurationBinRow {
	return rep.Outage.DurationBins(rep.Filter, core.ByAS(rep.Filter)[asn])
}

func shortShare(bins []core.DurationBinRow) float64 {
	total, ren := 0, 0
	for i := 0; i < 5 && i < len(bins); i++ {
		total += bins[i].Total
		ren += bins[i].Renumbered
	}
	if total == 0 {
		return -1
	}
	return float64(ren) / float64(total)
}

func longShare(bins []core.DurationBinRow) float64 {
	total, ren := 0, 0
	for i := 8; i < len(bins); i++ {
		total += bins[i].Total
		ren += bins[i].Renumbered
	}
	if total == 0 {
		return -1
	}
	return float64(ren) / float64(total)
}

func fracOf(rep *dynaddr.Report, asn uint32) float64 {
	for _, r := range rep.Table7ByAS {
		if r.ASN == asn {
			return r.FracBGP()
		}
	}
	return -1
}

func nightShare(h *core.HourHist) float64 {
	in, total := 0, 0
	for hr, c := range h.Hours {
		total += c
		if hr < 6 {
			in += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

func maxSixHourShare(h *core.HourHist) float64 {
	total := 0
	for _, c := range h.Hours {
		total += c
	}
	if total == 0 {
		return 1
	}
	best := 0.0
	for lo := 0; lo <= 18; lo++ {
		in := 0
		for hr := lo; hr < lo+6; hr++ {
			in += h.Hours[hr]
		}
		if f := float64(in) / float64(total); f > best {
			best = f
		}
	}
	return best
}
