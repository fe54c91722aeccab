package stream

import (
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
)

// probeState is one probe's state in its shard: the metadata, the
// resume counters, and the core.Machine that detects everything else
// record by record, so a snapshot can classify and aggregate without
// revisiting history.
type probeState struct {
	meta    atlasdata.ProbeMeta
	hasMeta bool

	// Processed-record counters by kind, counting every record the shard
	// consumed for this probe — accepted or rejected (the machine
	// refuses records out of the probe's time order). They form the
	// probe's resume cursor: because the shard WAL preserves per-probe
	// order, the counts identify exactly how far into a probe's stream
	// the durable state reaches, so a producer can resume after a crash
	// without gaps or duplicates.
	metaCount   int64
	connCount   int64
	kRootCount  int64
	uptimeCount int64
	rejected    int64

	// m keeps its event lists only on analysis shards.
	m core.Machine
}

func newProbeState(id atlasdata.ProbeID, analysis bool) *probeState {
	return &probeState{m: core.Machine{Probe: id, KeepEvents: analysis}}
}

func (ps *probeState) setMeta(m atlasdata.ProbeMeta) {
	ps.meta = m
	ps.hasMeta = true
}

// summarize produces the immutable per-probe view a snapshot aggregates.
func (ps *probeState) summarize() probeSummary {
	m := &ps.m
	sum := probeSummary{
		ID:             m.Probe,
		HasMeta:        ps.hasMeta,
		Sessions:       int64(m.RawEntries),
		Changes:        m.Changes,
		NetworkOutages: m.NetworkCount,
		Reboots:        m.RebootCount,
		OutageLinked:   m.OutageLinked,
		OpenLossRun:    m.Loss.Active,
		MultiAS:        m.MultiAS,
		ConnectedDays:  m.ConnectedDays(ps.meta),
		TTF:            m.TTF.Clone(),
		ASN:            uint32(m.Home()),
	}
	if ps.hasMeta {
		sum.Category = m.Category(ps.meta)
		sum.Country = ps.meta.Country
	}
	return sum
}
