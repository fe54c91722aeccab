// Periodic-ISPs: detect which ISPs renumber their customers on a fixed
// schedule (the paper's Table 5) and validate every inference against
// the simulator's ground truth — the oracle the paper could only
// approximate through private ISP correspondence.
//
// For each detected (AS, period) row this example reports whether the
// ISP's configured session cap matches the inferred period, and whether
// the inferred change-synchronisation (nightly window vs free-running)
// matches the configured CPE behaviour.
package main

import (
	"fmt"
	"log"

	"dynaddr"
	"dynaddr/internal/core"
)

func main() {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 7
	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		log.Fatal(err)
	}
	names := dynaddr.Names(world)

	profiles := dynaddr.PaperProfiles()
	truthPeriods := map[uint32]map[float64]bool{}
	for _, p := range profiles {
		set := map[float64]bool{}
		for _, c := range p.Cohorts {
			if c.Period > 0 {
				set[core.QuantizeHours(c.Period.Hours())] = true
			}
		}
		if len(set) > 0 {
			truthPeriods[uint32(p.ASN)] = set
		}
	}

	fmt.Println("Detected periodic ISPs vs configured ground truth:")
	fmt.Println()
	correct, total := 0, 0
	for _, row := range report.Table5 {
		total++
		verdict := "NOT CONFIGURED PERIODIC (false positive)"
		if set, ok := truthPeriods[row.ASN]; ok {
			if set[row.D] {
				verdict = "matches configured session cap"
				correct++
			} else {
				verdict = fmt.Sprintf("period mismatch (configured %v)", keys(set))
			}
		}
		fmt.Printf("  %-24s d=%4.0fh  %2d/%2d periodic  -> %s\n",
			names(row.ASN), row.D, row.NPeriodic, row.N, verdict)
	}
	fmt.Printf("\n%d/%d Table 5 rows match ground truth\n\n", correct, total)

	fmt.Println("Synchronisation of periodic changes (Figures 4/5):")
	for _, h := range report.HourHists {
		night, totalChanges := 0, 0
		for hr, c := range h.Hours {
			totalChanges += c
			if hr < 6 {
				night += c
			}
		}
		if totalChanges == 0 {
			continue
		}
		style := "free-running (changes spread across the day)"
		if float64(night)/float64(totalChanges) > 0.5 {
			style = "synchronised to a nightly reconnect window"
		}
		fmt.Printf("  %-24s %5d changes at d=%.0fh, %2.0f%% in hours 0-6 GMT: %s\n",
			names(h.ASN), totalChanges, h.D,
			100*float64(night)/float64(totalChanges), style)
	}
}

func keys(m map[float64]bool) []float64 {
	var out []float64
	for k := range m {
		out = append(out, k)
	}
	return out
}
