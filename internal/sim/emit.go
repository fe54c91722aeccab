package sim

import (
	"sort"

	"dynaddr/internal/atlasdata"
)

// RecordSink consumes a live record stream: probe metadata plus the
// three record kinds, delivered in per-probe time order. The stream
// Ingester satisfies this interface; so does anything else that wants
// to watch a world being generated record by record.
type RecordSink interface {
	Meta(atlasdata.ProbeMeta) error
	atlasdata.RecordSink
}

// GenerateTo builds a world exactly like Generate while also driving
// sink record by record: each probe's metadata is emitted as soon as
// its timeline has been simulated, followed by its connection-log,
// k-root and uptime records merged into a single time-ordered stream.
// Emission happens per probe during generation, not from the finished
// dataset, so a consumer observes the world the way a controller would
// — incrementally.
func GenerateTo(cfg Config, sink RecordSink) (*World, error) {
	return generateWorld(cfg, sink)
}

// ReplayDataset streams an existing dataset into sink in the same
// order GenerateTo would: probes ascending, records per probe merged by
// time (Dataset.EachRecord). The dataset must be sorted (Load and Generate both guarantee
// this).
func ReplayDataset(ds *atlasdata.Dataset, sink RecordSink) error {
	for _, id := range ds.ProbeIDs() {
		if err := emitProbe(ds, id, sink); err != nil {
			return err
		}
	}
	return nil
}

// emitProbe streams one probe's metadata and then its records, merged
// by Dataset.EachRecord.
func emitProbe(ds *atlasdata.Dataset, id atlasdata.ProbeID, sink RecordSink) error {
	if meta, ok := ds.Probes[id]; ok {
		if err := sink.Meta(meta); err != nil {
			return err
		}
	}
	return ds.EachRecord(id, sink)
}

// sortProbeRecords time-orders one probe's record slices in place, so a
// probe can be emitted before the dataset-wide SortRecords pass runs.
func sortProbeRecords(ds *atlasdata.Dataset, id atlasdata.ProbeID) {
	if s := ds.ConnLogs[id]; s != nil {
		sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	if s := ds.KRoot[id]; s != nil {
		sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
	}
	if s := ds.Uptime[id]; s != nil {
		sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
	}
}
