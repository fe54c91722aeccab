// Quickstart: generate a small synthetic RIPE-Atlas-shaped world, run
// the full analysis pipeline, and print the headline results — the
// filtering summary and the periodically renumbering ISPs the pipeline
// recovered.
package main

import (
	"fmt"
	"log"
	"os"

	"dynaddr"
)

func main() {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 42
	cfg.Scale = 0.25 // quarter-size world: fast, still recovers the shapes

	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d probes across %d ISPs\n\n",
		len(world.Dataset.Probes), len(dynaddr.PaperProfiles()))

	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		log.Fatal(err)
	}
	names := dynaddr.Names(world)

	if err := report.RenderTable2().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := report.RenderTable5(names).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("observed %d IPv4 address changes; %.0f%% moved to a different BGP prefix\n",
		report.Table7All.Changes, report.Table7All.FracBGP()*100)
}
