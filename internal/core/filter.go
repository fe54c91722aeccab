package core

import (
	"encoding/json"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/stats"
)

// Category is where the Table 2 filtering pipeline placed a probe.
type Category int

// Filtering categories, in the paper's Table 2 order. Categories are
// exclusive; a probe lands in the first one it matches.
const (
	CatShortLived Category = iota
	CatNeverChanged
	CatDualStack
	CatIPv6Only
	CatTaggedMultihomed
	CatBehaviouralMultihomed
	CatTestingOnly
	CatAnalyzable
)

// String names the category as Table 2 labels it.
func (c Category) String() string {
	switch c {
	case CatShortLived:
		return "Connected under 30 days"
	case CatNeverChanged:
		return "Never changed"
	case CatDualStack:
		return "Dual Stack"
	case CatIPv6Only:
		return "IPv6"
	case CatTaggedMultihomed:
		return "Multihomed / Core / Datacenter (tags)"
	case CatBehaviouralMultihomed:
		return "Multihomed (alternating addresses)"
	case CatTestingOnly:
		return "Only address change from 193.0.0.78"
	case CatAnalyzable:
		return "Analyzable"
	default:
		return "unknown"
	}
}

// Categories lists all categories in Table 2 order.
var Categories = []Category{
	CatShortLived, CatNeverChanged, CatDualStack, CatIPv6Only,
	CatTaggedMultihomed, CatBehaviouralMultihomed, CatTestingOnly,
	CatAnalyzable,
}

// minConnectedDays is the paper's pre-filter: probes connected for an
// aggregate of more than 30 days in 2015.
const minConnectedDays = 30

// ProbeView is a probe that survived filtering, with its cleaned log and
// derived artefacts ready for analysis.
type ProbeView struct {
	Meta atlasdata.ProbeMeta
	// Entries is the probe's connection log as the Dataset stores it,
	// testing entry stripped.
	Entries []atlasdata.ConnLogSample
	Changes []AddressChange
	// ASNs annotates Changes: the origin AS of From and To addresses,
	// mapped through the month-matched pfx2as snapshot (0 = unrouted).
	ASNs []EndpointASNs
	// MultiAS reports whether any change crossed autonomous systems;
	// such probes stay in the geographic analysis (with cross-AS changes
	// discarded) but leave the AS-level analysis (paper §3.3).
	MultiAS bool
	// ASN is the probe's home AS (the AS of its addresses) when the
	// probe is single-AS, else 0.
	ASN asdb.ASN
}

// probeViewJSON is a view's JSON form, its log as the probe's
// ConnLogEntries.
type probeViewJSON struct {
	Meta    atlasdata.ProbeMeta
	Entries []atlasdata.ConnLogEntry
	Changes []AddressChange
	ASNs    []EndpointASNs
	MultiAS bool
	ASN     asdb.ASN
}

// MarshalJSON writes the view as probeViewJSON, the form a view had
// when it held ConnLogEntries. A view holds no IPv6 session (Table 2
// files a probe with one elsewhere), so it needs no literal.
func (v ProbeView) MarshalJSON() ([]byte, error) {
	var none atlasdata.V6Table
	var entries []atlasdata.ConnLogEntry // nil stays nil
	if v.Entries != nil {
		entries = make([]atlasdata.ConnLogEntry, len(v.Entries))
	}
	for i, s := range v.Entries {
		entries[i] = s.Entry(v.Meta.ID, &none)
	}
	return json.Marshal(probeViewJSON{Meta: v.Meta, Entries: entries, Changes: v.Changes, ASNs: v.ASNs, MultiAS: v.MultiAS, ASN: v.ASN})
}

// Durations is the view's bounded address durations (V4Durations).
func (v *ProbeView) Durations() []AddressDuration { return V4Durations(v.Meta.ID, v.Entries) }

// EndpointASNs are the origin ASes of an address change's endpoints.
type EndpointASNs struct{ From, To asdb.ASN }

// FilterResult is the outcome of the Table 2 pipeline over a dataset.
type FilterResult struct {
	// ByCategory maps each category to the probes it absorbed, sorted.
	ByCategory map[Category][]atlasdata.ProbeID
	// Views holds the per-probe analysis artefacts for analyzable probes.
	Views map[atlasdata.ProbeID]*ProbeView
	// GeoProbes is the geography-analyzable set (the paper's 3,038).
	GeoProbes []atlasdata.ProbeID
	// ASProbes is the AS-level-analyzable set (the paper's 2,272):
	// GeoProbes minus multi-AS probes.
	ASProbes []atlasdata.ProbeID
}

// Count returns how many probes landed in a category.
func (r *FilterResult) Count(c Category) int { return len(r.ByCategory[c]) }

// Filter runs the paper's probe-filtering pipeline over a dataset: Run's
// first two steps, one probe at a time.
func Filter(ds *atlasdata.Dataset) *FilterResult {
	ids := ds.ProbeIDs()
	cats := make([]Category, len(ids))
	var views []*ProbeView
	for i, id := range ids {
		if cats[i] = settle(ds, ds.Probes[id]); cats[i] == CatAnalyzable {
			view, _, _ := analyzeProbe(ds, ds.Probes[id])
			views = append(views, view)
		}
	}
	return assembleFilter(ids, cats, views)
}

// assembleFilter builds a FilterResult from every probe's category, ids
// in ascending probe-ID order (the order ds.ProbeIDs returns), and the
// views of the analyzable ones in the same order.
func assembleFilter(ids []atlasdata.ProbeID, cats []Category, views []*ProbeView) *FilterResult {
	res := &FilterResult{
		ByCategory: make(map[Category][]atlasdata.ProbeID),
		Views:      make(map[atlasdata.ProbeID]*ProbeView, len(views)),
	}
	for i, id := range ids {
		res.ByCategory[cats[i]] = append(res.ByCategory[cats[i]], id)
	}
	for _, view := range views {
		id := view.Meta.ID
		res.Views[id] = view
		res.GeoProbes = append(res.GeoProbes, id)
		if !view.MultiAS {
			res.ASProbes = append(res.ASProbes, id)
		}
	}
	return res
}

// settle returns where the Table 2 pipeline places a probe. The category
// depends on the connection log alone, so a machine fed only that log
// settles it. It reads the dataset without mutating it, so distinct
// probes may be settled concurrently.
func settle(ds *atlasdata.Dataset, meta atlasdata.ProbeMeta) Category {
	var log Machine
	for _, e := range ds.ConnLogs[meta.ID] {
		log.Conn(e.Entry(meta.ID, &ds.V6), nil, nil)
	}
	return log.Category(meta)
}

// analyzeProbe runs an analyzable probe's whole record stream through
// Detect and returns its view, its frozen events and its TTF
// distribution. The view keeps the stripped log, its changes and their
// endpoint ASes, as the machine looks them up, for the analyses that
// need more than the machine's events. The machine's changes are the
// stripped log's V4Changes, in the same order. Like settle, it may run
// concurrently for distinct probes.
func analyzeProbe(ds *atlasdata.Dataset, meta atlasdata.ProbeMeta) (*ProbeView, ProbeEvents, stats.Weighted) {
	var asns []EndpointASNs
	m := detect(ds, meta.ID, nil, &asns)
	entries := ds.ConnLogs[meta.ID]
	if m.Stripped {
		entries = entries[1:]
	}
	view := &ProbeView{Meta: meta, Entries: entries, Changes: V4Changes(meta.ID, entries), ASNs: asns, MultiAS: m.MultiAS, ASN: m.Home()}
	return view, m.Events(meta), m.TTF
}
