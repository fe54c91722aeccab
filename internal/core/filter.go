package core

import (
	"encoding/json"
	"sort"

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

// Filter runs the paper's probe-filtering pipeline over a dataset.
func Filter(ds *atlasdata.Dataset) *FilterResult {
	ids := ds.ProbeIDs()
	cats := make([]Category, len(ids))
	views := make([]*ProbeView, len(ids))
	for i, id := range ids {
		cats[i], views[i], _ = classify(ds, ds.Probes[id])
	}
	return AssembleFilter(ids, cats, views)
}

// AssembleFilter builds a FilterResult from per-probe classifications,
// one slot per probe, listed in ascending probe-ID order (the order
// ds.ProbeIDs returns). views[i] must be non-nil exactly when cats[i]
// is CatAnalyzable. Splitting classification from assembly lets callers
// classify probes on any schedule while the assembled result stays
// identical to the sequential Filter.
func AssembleFilter(ids []atlasdata.ProbeID, cats []Category, views []*ProbeView) *FilterResult {
	res := &FilterResult{
		ByCategory: make(map[Category][]atlasdata.ProbeID),
		Views:      make(map[atlasdata.ProbeID]*ProbeView),
	}
	for i, id := range ids {
		cat := cats[i]
		res.ByCategory[cat] = append(res.ByCategory[cat], id)
		if cat != CatAnalyzable {
			continue
		}
		view := views[i]
		res.Views[id] = view
		res.GeoProbes = append(res.GeoProbes, id)
		if !view.MultiAS {
			res.ASProbes = append(res.ASProbes, id)
		}
	}
	for c := range res.ByCategory {
		ids := res.ByCategory[c]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return res
}

// classify returns where the Table 2 pipeline places a probe and, for
// an analyzable probe, its view and frozen events. The category depends
// on the connection log alone, so a machine fed only that log settles
// it; the probe's whole record stream goes through Detect only when the
// probe is analyzable. It reads the dataset without mutating it, so
// distinct probes may be classified concurrently.
func classify(ds *atlasdata.Dataset, meta atlasdata.ProbeMeta) (Category, *ProbeView, *detection) {
	var log Machine
	for _, e := range ds.ConnLogs[meta.ID] {
		log.Conn(e.Entry(meta.ID, &ds.V6), nil, nil)
	}
	if cat := log.Category(meta); cat != CatAnalyzable {
		return cat, nil, nil
	}
	// The view keeps the stripped log, its changes and their endpoint
	// ASes, as the machine looks them up, for the analyses that need more
	// than the machine's events. The machine's changes are the stripped
	// log's V4Changes, in the same order.
	entries := ds.ConnLogs[meta.ID]
	if log.Stripped {
		entries = entries[1:]
	}
	changes := V4Changes(meta.ID, entries)
	asns := make([]EndpointASNs, 0, len(changes))
	m := detect(ds, meta.ID, nil, &asns)
	view := &ProbeView{Meta: meta, Entries: entries, Changes: changes, ASNs: asns, MultiAS: m.MultiAS, ASN: m.Home()}
	return CatAnalyzable, view, &detection{events: m.Events(meta), ttf: m.TTF}
}

// detection is what Run keeps of an analyzable probe's machine for the
// stages after the filter.
type detection struct {
	events ProbeEvents
	ttf    stats.Weighted
}
