// Package dynaddr reproduces the measurement study "Reasons Dynamic
// Addresses Change" (Padmanabhan, Dhamdhere, Aben, claffy, Spring — IMC
// 2016) as a library: a generator for RIPE-Atlas-shaped datasets
// (connection logs, k-root ping rounds, SOS-uptime records, probe
// archive, monthly pfx2as snapshots) and the complete analysis pipeline
// that recovers the paper's tables and figures from them.
//
// Typical use:
//
//	world, err := dynaddr.Generate(dynaddr.DefaultConfig())
//	if err != nil { ... }
//	report, err := dynaddr.NewAnalyzer().Analyze(world.Dataset)
//	if err != nil { ... }
//	report.RenderTable5(dynaddr.Names(world)).Render(os.Stdout)
//
// Datasets round-trip through directories with SaveDataset/LoadDataset,
// so the generator and the analyzer can run in separate processes — the
// cmd/atlasgen and cmd/churnctl binaries are exactly that split.
package dynaddr

import (
	"time"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/isp"
	"dynaddr/internal/sim"
	"dynaddr/internal/simclock"
)

// Duration is simulated time in seconds; configuration fields use it.
type Duration = simclock.Duration

// Re-exported duration units for configuration literals.
const (
	Second = simclock.Second
	Minute = simclock.Minute
	Hour   = simclock.Hour
	Day    = simclock.Day
	Week   = simclock.Week
)

// FromStd converts a standard library duration to simulated seconds.
func FromStd(d time.Duration) Duration { return Duration(d / time.Second) }

// Config parameterises dataset generation; see sim.Config for the
// field-by-field documentation.
type Config = sim.Config

// World is a generated deployment: datasets plus generative ground
// truth.
type World = sim.World

// Dataset bundles the three record streams, the probe archive and the
// pfx2as snapshots.
type Dataset = atlasdata.Dataset

// Report holds every computed table and figure.
type Report = core.Report

// Options tune the analysis (figure AS selection and similar).
type Options = core.Options

// Profile is one ISP's ground-truth behaviour.
type Profile = isp.Profile

// DefaultConfig returns the paper-shaped world configuration: the full
// ISP registry at its published deployment sizes, the 2015 study year,
// and the population mix of Table 2.
func DefaultConfig() Config { return sim.DefaultConfig() }

// PaperProfiles returns the ISP registry encoding the paper's per-AS
// ground truth (Tables 5-7).
func PaperProfiles() []Profile { return isp.PaperProfiles() }

// Generate builds a synthetic world.
func Generate(cfg Config) (*World, error) { return sim.Generate(cfg) }

// RecordSink consumes a live record stream in per-probe time order; the
// streaming Ingester satisfies it.
type RecordSink = sim.RecordSink

// GenerateTo builds a world while also driving sink record by record,
// probe by probe — the streaming counterpart of Generate.
func GenerateTo(cfg Config, sink RecordSink) (*World, error) { return sim.GenerateTo(cfg, sink) }

// ReplayDataset streams an existing dataset into sink in generation
// order (probes ascending, records per probe merged by time).
func ReplayDataset(ds *Dataset, sink RecordSink) error { return sim.ReplayDataset(ds, sink) }

// SaveDataset writes a dataset to a directory.
func SaveDataset(ds *Dataset, dir string) error { return ds.Save(dir) }

// LoadDataset reads a dataset directory written by SaveDataset.
func LoadDataset(dir string) (*Dataset, error) { return atlasdata.Load(dir) }

// Names builds an ASN-to-name resolver from a world's registry, for the
// Render* methods.
func Names(w *World) core.NameFunc {
	if w == nil || w.Registry == nil {
		return nil
	}
	reg := w.Registry
	return func(asn uint32) string {
		if as, ok := reg.Lookup(asdb.ASN(asn)); ok {
			return as.Name
		}
		return ""
	}
}

// ProfileNames builds an ASN-to-name resolver from a profile list, for
// analyses of datasets loaded from disk (where no registry travelled
// with the data).
func ProfileNames(profiles []Profile) core.NameFunc {
	m := make(map[uint32]string, len(profiles))
	for _, p := range profiles {
		m[uint32(p.ASN)] = p.Name
		if p.SiblingASN != 0 {
			m[uint32(p.SiblingASN)] = p.Name + " (sibling)"
		}
	}
	return func(asn uint32) string { return m[asn] }
}
