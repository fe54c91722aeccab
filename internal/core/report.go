package core

import "dynaddr/internal/stats"

// ASCDF is a labelled cumulative distribution for one aggregation group
// (an AS, country, or continent), with the group's total address time —
// the number the paper prints in figure legends (in years).
type ASCDF struct {
	ASN        uint32
	Label      string
	Probes     int
	TotalYears float64
	CDF        []stats.Point
}

// HourHist is an hour-of-day histogram for one AS's periodic changes
// (Figures 4 and 5).
type HourHist struct {
	ASN   uint32
	D     float64
	Hours [24]int
}

// PacECDF is the per-probe conditional-probability ECDF for one AS
// (Figures 7 and 8).
type PacECDF struct {
	ASN    uint32
	Probes int
	Points []stats.Point
}

// Figure9AS is the outage-duration renumbering profile for one AS.
type Figure9AS struct {
	ASN  uint32
	Bins []DurationBinRow
}

// Report bundles every table and figure of the paper's evaluation,
// computed from one dataset.
type Report struct {
	Filter *FilterResult
	Outage *OutageAnalysis

	// Table2 counts per filtering category, in Table 2 order.
	Table2 map[Category]int

	// Figure1: total-time-fraction CDFs per continent.
	Figure1 []ASCDF
	// Figure2: TTF CDFs for the ASes with the most duration-yielding
	// probes.
	Figure2 []ASCDF
	// Figure3: TTF CDFs for German ASes with enough total time.
	Figure3 []ASCDF

	// Table5 rows plus the "All" summary rows at 24h and 168h.
	Table5    []ASPeriodicRow
	Table5All []ASPeriodicRow

	// Figures 4 and 5: hour-of-day change histograms for the two ASes
	// with the most periodic probes.
	HourHists []HourHist

	// Figure6: reboots per day and detected firmware days.
	Figure6RebootsPerDay []int
	Figure6FirmwareDays  []int

	// Figure7/8: P(ac|nw) and P(ac|pw) ECDFs for the top outage ASes.
	Figure7 []PacECDF
	Figure8 []PacECDF

	// Table6 rows.
	Table6 []ASOutageRow

	// Figure9: duration-binned renumbering for contrast ASes (a DHCP-
	// style AS and a PPP-style AS when available).
	Figure9 []Figure9AS

	// Table7: the all-probes row plus per-AS rows.
	Table7All  PrefixChangeRow
	Table7ByAS []PrefixChangeRow

	// Extensions beyond the paper's evaluation (its §8 future work):

	// LinkTypes are per-AS access-technology inferences from outage
	// response (§5.3's closing remark made an algorithm).
	LinkTypes []LinkTypeRow
	// AdminEvents are detected en-masse administrative renumberings.
	AdminEvents []AdminEvent
	// ChurnMean is the mean day-over-day turnover of the active address
	// set across geo-analyzable probes (the Richter et al. series).
	ChurnMean float64
	// V6 is the IPv6 ephemerality analysis over the probes the IPv4
	// pipeline filters out.
	V6 *V6Report

	// Metrics records how the report was computed (per-stage wall time
	// and record counts). Run always fills it. Excluded from report
	// equality — two reports over the same dataset are equal whatever
	// schedule produced them.
	Metrics *RunMetrics
}

// Options tune report generation.
type Options struct {
	// TopASes is how many ASes Figures 2, 7 and 8 include (default 5).
	TopASes int
	// Figure3Country selects Figure 3's country (default "DE").
	Figure3Country string
	// Figure3MinYears is the minimum total address time for a Figure 3
	// AS, in years (the paper uses 3).
	Figure3MinYears float64
	// Figure9ASNs pins Figure 9's contrast ASes; empty picks the
	// highest- and lowest-renumbering ASes from Table 6 automatically.
	Figure9ASNs []uint32
}
