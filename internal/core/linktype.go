package core

import (
	"fmt"
	"sort"
)

// The paper's §5.3 closes with: "We expect that this property can be
// used as evidence in inferring a device's link type." This file makes
// that remark an algorithm: an AS's renumbering-versus-outage-duration
// profile separates PPP/Radius plants (renumber on any interruption),
// DHCP plants (renumbering grows with outage duration as leases lapse),
// and stable plants (addresses survive nearly everything).

// LinkType is the inferred access-technology class of an AS.
type LinkType int

// Link types.
const (
	LinkUnknown LinkType = iota
	LinkPPP
	LinkDHCP
	LinkStable
)

// String names the link type.
func (l LinkType) String() string {
	switch l {
	case LinkPPP:
		return "ppp"
	case LinkDHCP:
		return "dhcp"
	case LinkStable:
		return "stable"
	default:
		return "unknown"
	}
}

// LinkEvidence carries the measurements behind an inference.
type LinkEvidence struct {
	// ShortRate is the renumbering share over outages under one hour;
	// LongRate over outages of 12 hours and more.
	ShortRate float64
	LongRate  float64
	ShortN    int
	LongN     int
}

// String formats the evidence compactly.
func (e LinkEvidence) String() string {
	return fmt.Sprintf("short %0.2f (n=%d), long %0.2f (n=%d)",
		e.ShortRate, e.ShortN, e.LongRate, e.LongN)
}

// Inference thresholds. Short outages cannot lapse any plausible DHCP
// lease (clients renew at half-lease, leases run hours), so a high
// short-outage renumbering share is PPP's signature; growth from a low
// short rate to a substantial long rate is DHCP's; neither is a stable
// plant's.
const (
	linkMinShortSamples = 10
	linkMinLongSamples  = 3
	linkPPPShortRate    = 0.5
	linkDHCPLongRate    = 0.2
)

// InferLinkType classifies one AS's outage-duration profile.
func InferLinkType(bins []DurationBinRow) (LinkType, LinkEvidence) {
	var ev LinkEvidence
	var shortRen, longRen int
	for i, b := range bins {
		switch {
		case i < 5: // < 1 hour
			ev.ShortN += b.Total
			shortRen += b.Renumbered
		case i >= 8: // >= 12 hours
			ev.LongN += b.Total
			longRen += b.Renumbered
		}
	}
	if ev.ShortN > 0 {
		ev.ShortRate = float64(shortRen) / float64(ev.ShortN)
	}
	if ev.LongN > 0 {
		ev.LongRate = float64(longRen) / float64(ev.LongN)
	}
	if ev.ShortN < linkMinShortSamples {
		return LinkUnknown, ev
	}
	switch {
	case ev.ShortRate >= linkPPPShortRate:
		return LinkPPP, ev
	case ev.LongN >= linkMinLongSamples && ev.LongRate >= linkDHCPLongRate && ev.LongRate > ev.ShortRate:
		return LinkDHCP, ev
	case ev.LongN >= linkMinLongSamples:
		return LinkStable, ev
	default:
		return LinkUnknown, ev
	}
}

// LinkTypeRow is one AS's inference.
type LinkTypeRow struct {
	ASN      uint32
	Probes   int
	Type     LinkType
	Evidence LinkEvidence
}

// LinkTypesByAS infers the link type of every AS with enough outage
// evidence, sorted by probe count descending then ASN.
func LinkTypesByAS(oa *OutageAnalysis, res *FilterResult) []LinkTypeRow {
	var rows []LinkTypeRow
	for asn, ids := range ByAS(res) {
		bins := oa.DurationBins(res, ids)
		lt, ev := InferLinkType(bins)
		if lt == LinkUnknown {
			continue
		}
		rows = append(rows, LinkTypeRow{ASN: asn, Probes: len(ids), Type: lt, Evidence: ev})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Probes != rows[j].Probes {
			return rows[i].Probes > rows[j].Probes
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}
