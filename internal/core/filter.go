package core

import (
	"sort"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
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
	Meta    atlasdata.ProbeMeta
	Entries []atlasdata.ConnLogEntry // testing entry stripped
	Changes []AddressChange
	// ASNs annotates Changes: the origin AS of From and To addresses,
	// mapped through the month-matched pfx2as snapshot (0 = unrouted).
	ASNs []struct{ From, To asdb.ASN }
	// MultiAS reports whether any change crossed autonomous systems;
	// such probes stay in the geographic analysis (with cross-AS changes
	// discarded) but leave the AS-level analysis (paper §3.3).
	MultiAS bool
	// ASN is the probe's home AS (the AS of its addresses) when the
	// probe is single-AS, else 0.
	ASN asdb.ASN
}

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
		cats[i], views[i] = classify(ds, ds.Probes[id])
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

// classify runs the Table 2 pipeline over one probe: the category it
// lands in and, for analyzable probes, the cleaned per-probe view. It
// reads the dataset without mutating it, so classifications of
// distinct probes may run concurrently (Run's per-probe fan-out).
func classify(ds *atlasdata.Dataset, meta atlasdata.ProbeMeta) (Category, *ProbeView) {
	if meta.ConnectedDays <= minConnectedDays {
		return CatShortLived, nil
	}
	raw := ds.ConnLogs[meta.ID]

	var v4, v6 int
	for _, e := range raw {
		if e.IsV4() {
			v4++
		} else {
			v6++
		}
	}
	// Family-based filters come first: a dual-stack log cannot bound
	// IPv4 address durations at all (§3.2).
	if v4 == 0 && v6 > 0 {
		return CatIPv6Only, nil
	}
	if v6 > 0 {
		return CatDualStack, nil
	}

	// A probe whose log shows a single IPv4 address all year (including
	// any testing prefix-entry — those probes changed) never changed.
	if singleAddress(raw) {
		return CatNeverChanged, nil
	}

	for _, tag := range []string{atlasdata.TagMultihomed, atlasdata.TagDatacentre, atlasdata.TagCore} {
		if meta.HasTag(tag) {
			return CatTaggedMultihomed, nil
		}
	}
	if alternatingAddresses(raw) {
		return CatBehaviouralMultihomed, nil
	}

	entries, stripped := StripTestingEntry(raw)
	changes := V4Changes(entries)
	if stripped && len(changes) == 0 {
		return CatTestingOnly, nil
	}
	if len(changes) == 0 {
		// Only change was... none. Possible when the testing strip was
		// not applicable but the log still shows one address; covered by
		// singleAddress above, so reaching here means an empty log.
		return CatNeverChanged, nil
	}

	view := &ProbeView{Meta: meta, Entries: entries, Changes: changes}
	home := asdb.ASN(0)
	consistent := true
	view.ASNs = make([]struct{ From, To asdb.ASN }, len(changes))
	for i, ch := range changes {
		fromASN, _, _ := ds.Pfx2AS.Lookup(ch.From, ch.PrevEnd)
		toASN, _, _ := ds.Pfx2AS.Lookup(ch.To, ch.NextStart)
		view.ASNs[i] = struct{ From, To asdb.ASN }{fromASN, toASN}
		if fromASN != toASN {
			view.MultiAS = true
		}
		for _, asn := range []asdb.ASN{fromASN, toASN} {
			if asn == 0 {
				continue
			}
			if home == 0 {
				home = asn
			} else if home != asn {
				consistent = false
			}
		}
	}
	if consistent && home != 0 {
		view.ASN = home
	}
	return CatAnalyzable, view
}

// singleAddress reports whether every entry is IPv4 with one address.
func singleAddress(entries []atlasdata.ConnLogEntry) bool {
	var addr ip4.Addr
	n := 0
	for _, e := range entries {
		if !e.IsV4() {
			return false
		}
		if n == 0 {
			addr = e.Addr
		} else if e.Addr != addr {
			return false
		}
		n++
	}
	return n > 0
}

// alternatingAddresses implements the paper's behavioural multihomed
// detector (§3.2): the log alternates between one fixed address and
// other, potentially changing, addresses. Operationally: collapse the v4
// log into runs of equal addresses; if some address keeps coming back —
// at least three separated runs covering a quarter of all runs — the
// probe is switching uplinks, not being renumbered, because ISPs
// essentially never hand the same address back repeatedly.
func alternatingAddresses(entries []atlasdata.ConnLogEntry) bool {
	runCount := make(map[uint32]int)
	var prev uint32
	total := 0
	for _, e := range entries {
		if !e.IsV4() {
			continue
		}
		a := uint32(e.Addr)
		if total > 0 && a == prev {
			continue
		}
		runCount[a]++
		prev = a
		total++
	}
	if total < 5 {
		return false
	}
	for _, c := range runCount {
		if c >= 3 && float64(c) >= 0.25*float64(total) {
			return true
		}
	}
	return false
}
