package sim

import (
	"testing"

	"dynaddr/internal/isp"
	"dynaddr/internal/outage"
	"dynaddr/internal/rng"
	"dynaddr/internal/simclock"
)

// TestGenerateRandomConfigsAlwaysValid sweeps randomised configurations
// and requires every generated dataset to satisfy the cross-record
// invariants (sorted, non-overlapping, metadata-complete). The walker
// has many interacting event sources (outages, forced renumbers,
// firmware, switches, admin days, v6 rotation); this is the net that
// catches ordering regressions between them.
func TestGenerateRandomConfigsAlwaysValid(t *testing.T) {
	r := rng.New(20160714)
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig()
		cfg.Seed = r.Uint64()
		cfg.Scale = 0.02 + r.Float64()*0.08
		cfg.IPv6OnlyFrac = r.Float64() * 0.1
		cfg.DualStackFrac = r.Float64() * 0.4
		cfg.MultihomedFrac = r.Float64() * 0.1
		cfg.MoverFrac = r.Float64() * 0.1
		cfg.TestingAddrFrac = r.Float64() * 0.2
		cfg.ShortLivedFrac = r.Float64() * 0.1
		cfg.V6DailyRotateFrac = r.Float64()
		cfg.SpontaneousPerYear = r.Float64() * 40
		cfg.FirmwareParticipation = r.Float64()
		cfg.KRootHeartbeat = simclock.Duration(1+r.Intn(24)) * simclock.Hour
		// Occasionally shrink the interval.
		if r.Bool(0.3) {
			cfg.Start = simclock.StudyStart
			cfg.End = simclock.StudyStart.Add(simclock.Duration(40+r.Intn(200)) * simclock.Day)
			cfg.FirmwareDays = []int{10, 30}
		}
		w, err := Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d (seed %d): %v", trial, cfg.Seed, err)
		}
		if err := w.Dataset.Validate(); err != nil {
			t.Fatalf("trial %d (seed %d): invalid dataset: %v", trial, cfg.Seed, err)
		}
		for id, truth := range w.Truth.Probes {
			if _, ok := w.Dataset.Probes[id]; !ok {
				t.Fatalf("trial %d: truth probe %d missing from dataset", trial, id)
			}
			if truth.V4AddressChanges < 0 {
				t.Fatalf("trial %d: negative change count", trial)
			}
		}
	}
}

// TestGenerateCustomProfileMatrix exercises profile corner cases: a
// single-prefix PPP ISP, a zero-outage ISP, a sync-anchored weekly ISP,
// and an admin-renumbering static ISP, all in one world.
func TestGenerateCustomProfileMatrix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Profiles = []isp.Profile{
		{
			Name: "OnePrefix", ASN: 901, Country: "DE", Kind: isp.PPP,
			Cohorts:            []isp.Cohort{{Period: 24 * simclock.Hour, Weight: 1}},
			OutageRenumberFrac: 1, SameAddrProb: 0.3,
			NumPrefixes: 1, PrefixBits: 16, CrossPrefixProb: 0,
			DefaultProbes: 4,
		},
		{
			Name: "NoOutages", ASN: 902, Country: "FR", Kind: isp.DHCP,
			Lease: 2 * simclock.Hour, ReclaimMean: simclock.Day,
			Outage:      outageQuiet(),
			NumPrefixes: 2, PrefixBits: 16, CrossPrefixProb: 0.5,
			DefaultProbes: 4,
		},
		{
			Name: "WeeklyNight", ASN: 903, Country: "GB", Kind: isp.PPP,
			Cohorts:  []isp.Cohort{{Period: 168 * simclock.Hour, Weight: 1}},
			SyncFrac: 1, SyncStartHour: 2, SyncEndHour: 5,
			OutageRenumberFrac: 1,
			NumPrefixes:        2, PrefixBits: 16, CrossPrefixProb: 1,
			DefaultProbes: 4,
		},
		{
			Name: "AdminStatic", ASN: 904, Country: "NL", Kind: isp.Static,
			NumPrefixes: 2, PrefixBits: 16, AdminRenumberDay: 200,
			DefaultProbes: 4,
		},
	}
	cfg.IPv6OnlyFrac, cfg.DualStackFrac, cfg.MultihomedFrac, cfg.MoverFrac = 0, 0, 0, 0
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	// With SameAddrProb 0.3 the single-prefix ISP must sometimes hand
	// the same address back (harmonic) and sometimes not.
	var same, diff int
	for id, truth := range w.Truth.Probes {
		if truth.ISP != "OnePrefix" {
			continue
		}
		entries, _ := w.Dataset.ReadConnLogs(id)
		for i := 1; i < len(entries); i++ {
			if entries[i].Addr == entries[i-1].Addr {
				same++
			} else {
				diff++
			}
		}
	}
	if same == 0 || diff == 0 {
		t.Errorf("SameAddrProb 0.3 should mix: same=%d diff=%d", same, diff)
	}
	// The admin-renumbering static ISP's probes changed exactly once.
	for id, truth := range w.Truth.Probes {
		if truth.ISP != "AdminStatic" {
			continue
		}
		if !truth.AdminRenumbered {
			t.Errorf("probe %d missed the admin renumbering", id)
		}
		if truth.V4AddressChanges != 1 {
			t.Errorf("probe %d changed %d times, want exactly the admin event", id, truth.V4AddressChanges)
		}
	}
}

func outageQuiet() outage.Config {
	return outage.Config{
		PowerPerYear: 0, NetworkPerYear: 0, ShortFrac: 0.5,
		ParetoXm: 90, ParetoAlpha: 0.75, MaxDuration: simclock.Day,
	}
}
