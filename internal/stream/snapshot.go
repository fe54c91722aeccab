package stream

import (
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/geo"
	"dynaddr/internal/stats"
)

// probeSummary is the immutable per-probe view a shard hands to the
// snapshot merger.
type probeSummary struct {
	ID             atlasdata.ProbeID
	HasMeta        bool
	Category       core.Category
	Country        string // ISO code from probe metadata, "" when unregistered
	ASN            uint32 // home AS when consistent and known, else 0
	MultiAS        bool
	Sessions       int64
	Changes        int64
	NetworkOutages int64
	Reboots        int64
	OutageLinked   int64
	OpenLossRun    bool
	ConnectedDays  float64
	TTF            *stats.Weighted
}

// shardView is one shard's contribution to a snapshot.
type shardView struct {
	counts       RecordCounts
	ver          Version
	sessionsByAS map[uint32]int64
	probes       []probeSummary // sorted by probe ID
}

// ASAggregate is the per-AS incremental analysis state exposed by a
// snapshot: the streaming equivalent of the batch pipeline's per-AS
// grouping over analyzable single-AS probes.
type ASAggregate struct {
	ASN    uint32 `json:"asn"`
	Probes int    `json:"probes"`
	// Sessions counts IPv4 sessions attributed to this AS by the address
	// seen at session start (raw traffic view, all probes).
	Sessions int64 `json:"sessions"`
	// Changes is the total observed address changes across the AS's
	// analyzable probes — the batch pipeline's per-AS change count.
	Changes        int64 `json:"changes"`
	NetworkOutages int64 `json:"network_outages"`
	Reboots        int64 `json:"reboots"`
	// OutageLinkedChanges counts changes whose surrounding gap contained
	// outage evidence (loss run overlap or reboot instant).
	OutageLinkedChanges int64 `json:"outage_linked_changes"`
	// TTF is the AS's total-time-fraction distribution: weight d·n(d) at
	// each quantised duration d, merged across probes in ascending probe-
	// ID order (matching the batch GroupTTF exactly).
	TTF *stats.Weighted `json:"-"`
}

// ContinentAggregate is the per-continent slice of the snapshot — the
// paper's Figure 1 grouping (probe address-duration behaviour by the
// continent of the probe's country) maintained as a continuously
// updated product over the analyzable probes.
type ContinentAggregate struct {
	Continent geo.Continent `json:"continent"`
	Probes    int           `json:"probes"`
	Changes   int64         `json:"changes"`

	NetworkOutages      int64 `json:"network_outages"`
	Reboots             int64 `json:"reboots"`
	OutageLinkedChanges int64 `json:"outage_linked_changes"`
	// ConnectedDays sums the analyzable probes' connected time, the
	// denominator for per-continent change-rate readings.
	ConnectedDays float64 `json:"connected_days"`
	// TTF is the continent's total-time-fraction distribution, merged in
	// ascending probe-ID order like the per-AS aggregates.
	TTF *stats.Weighted `json:"-"`
}

// Snapshot is a consistent point-in-time view of an Ingester's state.
type Snapshot struct {
	Shards  int          `json:"shards"`
	Records RecordCounts `json:"records"`
	// Probes counts every probe the stream has seen records for;
	// Unregistered counts those still missing metadata (they are excluded
	// from classification and per-AS aggregates).
	Probes       int `json:"probes"`
	Unregistered int `json:"unregistered"`
	// Categories is the live Table 2: registered probes by classification.
	Categories map[core.Category]int `json:"-"`
	// GeoProbes / ASProbes count the batch filter's analyzable sets.
	GeoProbes int `json:"geo_probes"`
	ASProbes  int `json:"as_probes"`
	// Stream-wide event totals (all probes, registered or not).
	Changes             int64 `json:"changes"`
	NetworkOutages      int64 `json:"network_outages"`
	Reboots             int64 `json:"reboots"`
	OutageLinkedChanges int64 `json:"outage_linked_changes"`
	OpenLossRuns        int   `json:"open_loss_runs"`
	// PerAS holds the per-AS aggregates over analyzable single-AS probes.
	PerAS map[uint32]*ASAggregate `json:"-"`
	// PerContinent holds the Figure 1 aggregates over analyzable probes
	// whose country code maps to a known continent.
	PerContinent map[geo.Continent]*ContinentAggregate `json:"-"`
	// Version is the stream position the snapshot was taken at — the sum
	// of the shards' checkpoint generations and consumed-record counts.
	// Excluded from the JSON shape: it keys caches, it is not analysis
	// output, and it must not perturb the byte-equality recovery oracle
	// (an in-memory replay is generation 0; a recovered one is not).
	Version Version `json:"-"`
}

// AS returns the aggregate for one AS, or nil if no analyzable probe
// maps there.
func (s *Snapshot) AS(asn uint32) *ASAggregate { return s.PerAS[asn] }

// Continent returns the aggregate for one continent, or nil if no
// analyzable probe maps there.
func (s *Snapshot) Continent(c geo.Continent) *ContinentAggregate { return s.PerContinent[c] }

// ASNs returns the ASes present in the snapshot, ascending.
func (s *Snapshot) ASNs() []uint32 {
	out := make([]uint32, 0, len(s.PerAS))
	for asn := range s.PerAS {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeViews folds per-shard views into one snapshot. Probe summaries
// are visited in ascending probe-ID order across all shards so per-AS
// TTF merging reproduces the batch GroupTTF accumulation order exactly.
func mergeViews(views []*shardView, shards int) *Snapshot {
	snap := &Snapshot{
		Shards:       shards,
		Categories:   make(map[core.Category]int),
		PerAS:        make(map[uint32]*ASAggregate),
		PerContinent: make(map[geo.Continent]*ContinentAggregate),
	}
	var all []probeSummary
	for _, v := range views {
		snap.Records.add(v.counts)
		snap.Version.add(v.ver)
		all = append(all, v.probes...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })

	sessions := make(map[uint32]int64)
	for _, v := range views {
		for asn, n := range v.sessionsByAS {
			sessions[asn] += n
		}
	}

	for _, p := range all {
		snap.Probes++
		snap.Changes += p.Changes
		snap.NetworkOutages += p.NetworkOutages
		snap.Reboots += p.Reboots
		snap.OutageLinkedChanges += p.OutageLinked
		if p.OpenLossRun {
			snap.OpenLossRuns++
		}
		if !p.HasMeta {
			snap.Unregistered++
			continue
		}
		snap.Categories[p.Category]++
		if p.Category != core.CatAnalyzable {
			continue
		}
		snap.GeoProbes++
		// Figure 1 groups analyzable probes geographically; AS consistency
		// does not gate the continent view. Unknown country codes are
		// filterable, not fatal, matching the batch pipeline's handling of
		// incomplete metadata.
		if cont, err := geo.ContinentOf(p.Country); err == nil {
			ca, ok := snap.PerContinent[cont]
			if !ok {
				ca = &ContinentAggregate{Continent: cont, TTF: &stats.Weighted{}}
				snap.PerContinent[cont] = ca
			}
			ca.Probes++
			ca.Changes += p.Changes
			ca.NetworkOutages += p.NetworkOutages
			ca.Reboots += p.Reboots
			ca.OutageLinkedChanges += p.OutageLinked
			ca.ConnectedDays += p.ConnectedDays
			ca.TTF.AddDist(p.TTF)
		}
		if p.MultiAS {
			continue
		}
		snap.ASProbes++
		if p.ASN == 0 {
			continue
		}
		agg, ok := snap.PerAS[p.ASN]
		if !ok {
			agg = &ASAggregate{ASN: p.ASN, TTF: &stats.Weighted{}}
			snap.PerAS[p.ASN] = agg
		}
		agg.Probes++
		agg.Changes += p.Changes
		agg.NetworkOutages += p.NetworkOutages
		agg.Reboots += p.Reboots
		agg.OutageLinkedChanges += p.OutageLinked
		agg.TTF.AddDist(p.TTF)
	}
	for asn, n := range sessions {
		if agg, ok := snap.PerAS[asn]; ok {
			agg.Sessions = n
		}
	}
	return snap
}
