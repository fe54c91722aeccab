package liveanalysis

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
)

// FromBatch computes the live-analysis Result from a finished dataset:
// core.Detect runs every probe's records through the per-probe machine
// a stream shard runs, then the same Compute fold runs. It is how to
// get a Result without standing up an ingester.
func FromBatch(ds *atlasdata.Dataset, opts Options) *Result {
	// Churn counts the change traffic of every probe, analyzable or
	// not — the raw operational view.
	var tab core.ChurnTable
	var events []core.ProbeEvents
	for _, id := range ds.ProbeIDs() {
		meta := ds.Probes[id]
		m := core.Detect(ds, id, &tab)
		if m.Category(meta) == core.CatAnalyzable {
			events = append(events, m.Events(meta))
		}
	}
	churn := make(map[int]core.PrefixChangeRow)
	tab.AccumulateInto(churn)
	return Compute(events, churn, opts)
}
