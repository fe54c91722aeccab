// Outage-renumbering: contrast how a DHCP ISP and a PPP ISP treat the
// same kinds of customer outages (the paper's §5 and Figure 9).
//
// The example generates a two-ISP world with identical outage processes,
// then shows the conditional probability of an address change by outage
// duration bin for each — the DHCP ISP's curve rises with duration (the
// lease must lapse and the pool must reclaim), while the PPP ISP
// renumbers even sub-minute reconnects.
package main

import (
	"fmt"
	"log"
	"strings"

	"dynaddr"
	"dynaddr/internal/core"
	"dynaddr/internal/isp"
	"dynaddr/internal/outage"
)

func main() {
	sharedOutages := outage.Config{
		PowerPerYear: 25, NetworkPerYear: 45,
		ShortFrac: 0.45, ParetoXm: 120, ParetoAlpha: 0.45,
		MaxDuration: 14 * dynaddr.Day,
	}
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 99
	cfg.Profiles = []dynaddr.Profile{
		{
			Name: "CableCo (DHCP)", ASN: 64001, Country: "NL", Kind: isp.DHCP,
			Lease: 4 * dynaddr.Hour, ReclaimMean: 36 * dynaddr.Hour,
			Outage:      sharedOutages,
			NumPrefixes: 4, PrefixBits: 16, CrossPrefixProb: 0.5,
			DefaultProbes: 60,
		},
		{
			Name: "DSLNet (PPPoE+Radius)", ASN: 64002, Country: "DE", Kind: isp.PPP,
			Cohorts:            []isp.Cohort{{Period: 0, Weight: 1}},
			OutageRenumberFrac: 1.0, SameAddrProb: 0.005,
			Outage:      sharedOutages,
			NumPrefixes: 4, PrefixBits: 16, CrossPrefixProb: 0.5,
			DefaultProbes: 60,
		},
	}
	// Keep the population plain so every probe exercises the v4 path.
	cfg.IPv6OnlyFrac, cfg.DualStackFrac, cfg.MultihomedFrac, cfg.MoverFrac = 0, 0, 0, 0
	cfg.VersionWeights = [3]float64{0, 0, 1}

	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		log.Fatal(err)
	}

	for _, asn := range []uint32{64001, 64002} {
		ids := core.ByAS(report.Filter)[asn]
		name := dynaddr.Names(world)(asn)
		pac := report.Outage.PacSample(ids, false)
		fmt.Printf("%s — %d probes analyzable, mean P(addr change | network outage) = %.2f\n",
			name, len(ids), meanOr(pac.Mean(), pac.Len()))
		bins := report.Outage.DurationBins(report.Filter, ids)
		for _, b := range bins {
			if b.Total == 0 {
				continue
			}
			bar := strings.Repeat("#", int(b.Pct()*40))
			fmt.Printf("  %-7s %5d outages  %3.0f%% renumbered %s\n",
				b.Label, b.Total, b.Pct()*100, bar)
		}
		fmt.Println()
	}
	fmt.Println("Reading: DHCP renumbering rises with outage duration; PPP renumbers regardless.")
}

func meanOr(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v
}
