// Blacklist-advisor: the paper's motivating application turned into a
// tool. Given a (synthetic) year of measurements, it answers the
// question blocklist operators implicitly guess at: how long does an
// address-keyed entry keep pointing at the same subscriber in each ISP,
// can the subscriber shed it on demand by rebooting the CPE, and does
// widening the block to the enclosing prefix help?
package main

import (
	"fmt"
	"log"
	"sort"

	"dynaddr"
	"dynaddr/internal/core"
)

func main() {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 1606 // the study's venue year, why not
	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		log.Fatal(err)
	}
	names := dynaddr.Names(world)

	advice := core.AdviseBlacklist(report, 5)
	sort.Slice(advice, func(i, j int) bool {
		return advice[i].SuggestedTTL < advice[j].SuggestedTTL
	})

	fmt.Println("Blocklist entry guidance per ISP (shortest-lived first):")
	fmt.Println()
	fmt.Printf("  %-24s %10s %10s %8s %10s %s\n",
		"ISP", "median", "p90", "evade?", "TTL", "prefix-block escape rate")
	for _, a := range advice {
		evade := "no"
		if a.EvadableByReboot {
			evade = "REBOOT"
		}
		fmt.Printf("  %-24s %9.0fh %9.0fh %8s %10v %14.0f%%\n",
			names(a.ASN), a.MedianHoldHours, a.P90HoldHours, evade,
			a.SuggestedTTL, a.PrefixEscapeShare*100)
	}

	fmt.Println()
	fmt.Println("Reading:")
	fmt.Println("  - In daily-renumbering ISPs an address entry is stale within a day, and")
	fmt.Println("    a malicious subscriber can shed it immediately by power-cycling the CPE")
	fmt.Println("    (paper §5.4, §8).")
	fmt.Println("  - Widening the block to the old address's BGP prefix still misses the")
	fmt.Println("    escape-rate share of renumberings (paper §6, Table 7).")
	fmt.Println("  - Long TTLs are only safe in stable-DHCP ISPs like the North American")
	fmt.Println("    cable plants (paper §4.2).")
}
