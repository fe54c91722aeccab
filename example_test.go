package dynaddr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"

	"dynaddr"
)

// Example demonstrates the library's three-call workflow: generate a
// synthetic RIPE-Atlas-shaped world, run the paper's analysis pipeline,
// and query the report.
func Example() {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 20160314
	cfg.Scale = 0.2

	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth says DTAG (AS3320) renumbers daily; the pipeline
	// must find a Table 5 row saying exactly that.
	for _, row := range report.Table5 {
		if row.ASN == 3320 && row.D == 24 {
			fmt.Println("DTAG renumbers every 24 hours")
		}
	}
	// Output: DTAG renumbers every 24 hours
}

// ExampleLiveFromBatch demonstrates the streaming analysis engine:
// records flow into a live ingester one at a time, and the paper's
// answers are available at any moment — byte-identical to what the
// batch pipeline concludes from the same records.
func ExampleLiveFromBatch() {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = 20160314
	cfg.Scale = 0.2

	world, err := dynaddr.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ing := dynaddr.NewIngester(dynaddr.StreamConfig{
		Shards:   4,
		Pfx2AS:   world.Dataset.Pfx2AS,
		Analysis: true,
	})
	defer ing.Close()
	if err := dynaddr.ReplayDataset(world.Dataset, ing); err != nil {
		log.Fatal(err)
	}

	live, err := ing.Analysis()
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range live.Table5 {
		if row.ASN == 3320 && row.D == 24 {
			fmt.Println("DTAG renumbers every 24 hours — seen live")
		}
	}

	// The same answer, computed in batch from the finished dataset.
	ref := dynaddr.LiveFromBatch(world.Dataset, dynaddr.LiveOptions{})
	a, _ := json.Marshal(live)
	b, _ := json.Marshal(ref)
	fmt.Println("streaming == batch:", bytes.Equal(a, b))
	// Output:
	// DTAG renumbers every 24 hours — seen live
	// streaming == batch: true
}
