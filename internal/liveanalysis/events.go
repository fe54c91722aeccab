// Package liveanalysis answers the paper's questions live: periodic
// renumbering (Table 5), outage attribution (Table 6, Figures 6-8),
// prefix analysis (Table 7) and windowed address-change churn.
//
// Everything that is a pure function of one probe's record stream —
// closed address durations, inter-connection gaps, qualified loss
// runs, reboots and their surrounding k-root silences, prefix-change
// counters — is kept record by record in the probe's core.Machine,
// which the stream ingester's shards and the batch pipeline both run.
// Everything that is retroactive or cross-probe — firmware-push
// detection (a population-wide reboot spike reshapes every probe's
// power-outage evidence), gap classification, AS aggregation, ECDFs —
// runs only at query time in Compute, over frozen core.ProbeEvents,
// through core.FoldEvents, the fold the batch core.Run also runs. This
// package adds only the day-windowed churn series and the rendering.
//
// FromBatch runs core.Detect over a finished dataset and then the
// same Compute.
package liveanalysis

import "dynaddr/internal/core"

// ChurnWindow is one study day's address-change traffic across every
// probe (not just analyzable ones): how many changes landed in the day
// and how far they moved. Day is simclock's day-within-study; -1
// collects changes outside the study year.
type ChurnWindow struct {
	Day int                  `json:"day"`
	Row core.PrefixChangeRow `json:"row"`
}
