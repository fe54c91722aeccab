package sim

import (
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/isp"
	"dynaddr/internal/outage"
	"dynaddr/internal/simclock"
)

// tinyProfiles is a fast world: one periodic PPP ISP, one DHCP ISP, one
// static ISP.
func tinyProfiles() []isp.Profile {
	return []isp.Profile{
		{
			Name: "PeriodicNet", ASN: 100, Country: "DE", Kind: isp.PPP,
			Cohorts:  []isp.Cohort{{Period: 24 * simclock.Hour, Weight: 1}},
			SkipProb: 0.001, SameAddrProb: 0.001,
			OutageRenumberFrac: 1.0,
			NumPrefixes:        2, PrefixBits: 16, CrossPrefixProb: 0.5,
			DefaultProbes: 6,
		},
		{
			Name: "LeaseNet", ASN: 200, Country: "US", Kind: isp.DHCP,
			Lease: 4 * simclock.Hour, ReclaimMean: 30 * simclock.Day,
			NumPrefixes: 2, PrefixBits: 16, CrossPrefixProb: 0.3,
			DefaultProbes: 6,
		},
		{
			Name: "StaticNet", ASN: 300, Country: "FR", Kind: isp.Static,
			NumPrefixes: 1, PrefixBits: 16,
			DefaultProbes: 4,
		},
	}
}

func tinyConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Profiles = tinyProfiles()
	cfg.Scale = 1
	// Make cohorts deterministic-ish for the tiny world: no special
	// cohorts, so every probe exercises the plain v4 path.
	cfg.IPv6OnlyFrac = 0
	cfg.DualStackFrac = 0
	cfg.MultihomedFrac = 0
	cfg.MoverFrac = 0
	cfg.TestingAddrFrac = 0
	cfg.ShortLivedFrac = 0
	cfg.VersionWeights = [3]float64{0, 0, 1}
	return cfg
}

func generate(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scale should fail")
	}
	bad = DefaultConfig()
	bad.DualStackFrac = 0.9
	bad.MultihomedFrac = 0.2
	if err := bad.Validate(); err == nil {
		t.Error("cohort fractions over 1 should fail")
	}
	bad = DefaultConfig()
	bad.FirmwareDays = []int{400}
	if err := bad.Validate(); err == nil {
		t.Error("firmware day outside year should fail")
	}
	bad = DefaultConfig()
	bad.VersionWeights = [3]float64{0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero version weights should fail")
	}
}

func TestGenerateTinyWorld(t *testing.T) {
	w := generate(t, tinyConfig(7))
	if err := w.Dataset.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if len(w.Dataset.Probes) != 16 {
		t.Errorf("probe count = %d, want 16", len(w.Dataset.Probes))
	}
	if len(w.Truth.Probes) != len(w.Dataset.Probes) {
		t.Error("truth and dataset probe counts differ")
	}
	if months := w.Dataset.Pfx2AS.Months(); len(months) != 12 {
		t.Errorf("pfx2as months = %d, want 12", len(months))
	}
}

func TestDeterminism(t *testing.T) {
	w1 := generate(t, tinyConfig(42))
	w2 := generate(t, tinyConfig(42))
	if !reflect.DeepEqual(w1.Dataset.ConnLogs, w2.Dataset.ConnLogs) || !reflect.DeepEqual(w1.Dataset.V6, w2.Dataset.V6) {
		t.Error("connection logs differ across identical runs")
	}
	if !reflect.DeepEqual(w1.Dataset.KRoot, w2.Dataset.KRoot) {
		t.Error("k-root rounds differ across identical runs")
	}
	if !reflect.DeepEqual(w1.Dataset.Uptime, w2.Dataset.Uptime) {
		t.Error("uptime records differ across identical runs")
	}
	if !reflect.DeepEqual(w1.Truth, w2.Truth) {
		t.Error("truth journals differ across identical runs")
	}
}

func TestSeedsDiffer(t *testing.T) {
	w1 := generate(t, tinyConfig(1))
	w2 := generate(t, tinyConfig(2))
	if reflect.DeepEqual(w1.Dataset.ConnLogs, w2.Dataset.ConnLogs) {
		t.Error("different seeds produced identical connection logs")
	}
}

func TestPeriodicProbesRenumberDaily(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id, truth := range w.Truth.Probes {
		if truth.ISP != "PeriodicNet" {
			continue
		}
		// A daily-renumbered probe alive all year sees hundreds of
		// changes.
		if truth.V4AddressChanges < 200 {
			t.Errorf("probe %d in PeriodicNet changed only %d times", id, truth.V4AddressChanges)
		}
		// Check the dominant address duration is ~24h in the logs.
		entries, _ := w.Dataset.ReadConnLogs(id)
		var day, total int
		for i := 1; i < len(entries); i++ {
			if entries[i].Addr == entries[i-1].Addr {
				continue
			}
			dur := entries[i].Start.Sub(entries[i-1].Start)
			total++
			if dur > 23*simclock.Hour && dur < 26*simclock.Hour {
				day++
			}
		}
		if total > 0 && float64(day)/float64(total) < 0.5 {
			t.Errorf("probe %d: only %d/%d inter-change spans near 24h", id, day, total)
		}
	}
}

func TestStaticProbesNeverChange(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id, truth := range w.Truth.Probes {
		if truth.ISP != "StaticNet" {
			continue
		}
		if truth.V4AddressChanges != 0 {
			t.Errorf("static probe %d changed %d times", id, truth.V4AddressChanges)
		}
		entries, _ := w.Dataset.ReadConnLogs(id)
		for i := 1; i < len(entries); i++ {
			if entries[i].Addr != entries[0].Addr {
				t.Errorf("static probe %d has multiple addresses", id)
				break
			}
		}
	}
}

func TestDHCPLongReclaimRarelyChanges(t *testing.T) {
	w := generate(t, tinyConfig(7))
	var changes, probes int
	for _, truth := range w.Truth.Probes {
		if truth.ISP != "LeaseNet" {
			continue
		}
		probes++
		changes += truth.V4AddressChanges
	}
	if probes == 0 {
		t.Fatal("no LeaseNet probes")
	}
	if avg := float64(changes) / float64(probes); avg > 12 {
		t.Errorf("30-day-reclaim DHCP probes average %.1f changes/year; too churny", avg)
	}
}

func TestKRootInvariants(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id, rounds := range w.Dataset.KRoot {
		for i, s := range rounds {
			r := s.Round(id)
			if err := r.Validate(); err != nil {
				t.Fatalf("probe %d round %d: %v", id, i, err)
			}
			if i > 0 && r.Timestamp < rounds[i-1].Time() {
				t.Fatalf("probe %d rounds unsorted at %d", id, i)
			}
			// Loss rounds carry LTS that exceeds the sync cadence.
			if r.AllLost() && r.LTS < 10 {
				t.Errorf("probe %d: all-lost round with tiny LTS %d", id, r.LTS)
			}
		}
		// Within a loss run the LTS must grow.
		for i := 1; i < len(rounds); i++ {
			cur, prev := rounds[i].Round(id), rounds[i-1].Round(id)
			if cur.AllLost() && prev.AllLost() && cur.LTS <= prev.LTS {
				t.Errorf("probe %d: LTS not growing within loss run at %d", id, i)
			}
		}
	}
}

func TestUptimeResetsMatchTruthReboots(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id, truth := range w.Truth.Probes {
		recs := w.Dataset.Uptime[id]
		resets := 0
		for i := 1; i < len(recs); i++ {
			// A reset shows as the counter dropping below the elapsed
			// wall time since the previous record.
			elapsed := int64(recs[i].Timestamp.Sub(recs[i-1].Timestamp))
			if recs[i].Uptime < recs[i-1].Uptime+elapsed-60 && recs[i].Uptime < elapsed {
				resets++
			}
		}
		if resets != truth.Reboots {
			t.Errorf("probe %d: %d uptime resets vs %d truth reboots", id, resets, truth.Reboots)
		}
	}
}

func TestOutageCountsPlausible(t *testing.T) {
	w := generate(t, tinyConfig(7))
	var power, network int
	for _, truth := range w.Truth.Probes {
		power += truth.PowerOutages
		network += truth.NetworkOutages
	}
	if power == 0 || network == 0 {
		t.Errorf("outages missing: power=%d network=%d", power, network)
	}
}

func TestFirmwareRebootSpikes(t *testing.T) {
	cfg := tinyConfig(11)
	cfg.FirmwareParticipation = 1.0
	w := generate(t, cfg)
	// Count probes whose truth says they installed each push.
	fwReboots := 0
	for _, truth := range w.Truth.Probes {
		fwReboots += truth.FirmwareReboots
	}
	if fwReboots < len(w.Truth.Probes)*len(cfg.FirmwareDays)/2 {
		t.Errorf("firmware reboots = %d, expected most of %d probes x %d pushes",
			fwReboots, len(w.Truth.Probes), len(cfg.FirmwareDays))
	}
}

func TestSpecialCohortsAppear(t *testing.T) {
	cfg := tinyConfig(13)
	cfg.IPv6OnlyFrac = 0.1
	cfg.DualStackFrac = 0.3
	cfg.MultihomedFrac = 0.15
	cfg.MoverFrac = 0.1
	cfg.TestingAddrFrac = 0.2
	cfg.Profiles[0].DefaultProbes = 40
	cfg.Profiles[1].DefaultProbes = 40
	w := generate(t, cfg)
	counts := map[Special]int{}
	testing_ := 0
	for _, truth := range w.Truth.Probes {
		counts[truth.Special]++
		if truth.TestingFirst {
			testing_++
		}
	}
	for _, s := range []Special{IPv6Only, DualStack, Multihomed, Mover} {
		if counts[s] == 0 {
			t.Errorf("cohort %v absent from world", s)
		}
	}
	if testing_ == 0 {
		t.Error("no testing-address probes")
	}
	// Verify record shapes for each cohort.
	for id, truth := range w.Truth.Probes {
		entries, _ := w.Dataset.ReadConnLogs(id)
		switch truth.Special {
		case IPv6Only:
			for _, e := range entries {
				if e.IsV4() && e.Addr != 0 && !truth.TestingFirst {
					t.Errorf("IPv6-only probe %d has v4 session", id)
					break
				}
			}
		case DualStack:
			var v4, v6 bool
			for _, e := range entries {
				if e.IsV4() {
					v4 = true
				} else {
					v6 = true
				}
			}
			if !v4 || !v6 {
				t.Errorf("dual-stack probe %d uses one family only", id)
			}
		}
		if truth.TestingFirst && len(entries) > 0 {
			if entries[0].Family != atlasdata.V4 || entries[0].Addr != ip4.TestingAddr {
				t.Errorf("testing-first probe %d first entry = %v", id, entries[0].Addr)
			}
		}
	}
}

func TestMoverChangesAS(t *testing.T) {
	cfg := tinyConfig(17)
	cfg.MoverFrac = 0.5
	w := generate(t, cfg)
	foundCrossAS := false
	for id, truth := range w.Truth.Probes {
		if truth.Special != Mover {
			continue
		}
		entries, _ := w.Dataset.ReadConnLogs(id)
		var asns = map[uint32]bool{}
		for _, e := range entries {
			if !e.IsV4() {
				continue
			}
			if asn, _, ok := w.Dataset.Pfx2AS.Lookup(e.Addr, e.Start); ok {
				asns[uint32(asn)] = true
			}
		}
		if len(asns) > 1 {
			foundCrossAS = true
		}
	}
	if !foundCrossAS {
		t.Error("no mover produced cross-AS address changes")
	}
}

func TestAllAddressesRoutable(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id := range w.Dataset.ConnLogs {
		entries, _ := w.Dataset.ReadConnLogs(id)
		for _, e := range entries {
			if !e.IsV4() {
				continue
			}
			if _, _, ok := w.Dataset.Pfx2AS.Lookup(e.Addr, e.Start); !ok {
				t.Fatalf("probe %d used unroutable address %v", id, e.Addr)
			}
		}
	}
}

func TestSyncAnchoredChangesLandInWindow(t *testing.T) {
	profiles := []isp.Profile{{
		Name: "NightReset", ASN: 100, Country: "DE", Kind: isp.PPP,
		Cohorts:  []isp.Cohort{{Period: 24 * simclock.Hour, Weight: 1}},
		SyncFrac: 1.0, SyncStartHour: 0, SyncEndHour: 6,
		SkipProb: 0.001, SameAddrProb: 0.001,
		OutageRenumberFrac: 1.0,
		NumPrefixes:        2, PrefixBits: 16, CrossPrefixProb: 0.5,
		DefaultProbes: 5,
		// Suppress outages so nearly every change is the nightly reset.
		Outage: outage.Config{
			PowerPerYear: 0.5, NetworkPerYear: 0.5, ShortFrac: 0.5,
			ParetoXm: 90, ParetoAlpha: 0.75, MaxDuration: simclock.Day,
		},
	}}
	cfg := tinyConfig(19)
	cfg.Profiles = profiles
	w := generate(t, cfg)
	inWindow, total := 0, 0
	for id := range w.Dataset.ConnLogs {
		entries, _ := w.Dataset.ReadConnLogs(id)
		_ = id
		for i := 1; i < len(entries); i++ {
			if entries[i].Addr == entries[i-1].Addr {
				continue
			}
			total++
			if h := entries[i-1].End.HourOfDay(); h < 6 {
				inWindow++
			}
		}
	}
	if total == 0 {
		t.Fatal("no address changes generated")
	}
	if frac := float64(inWindow) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of changes in the nightly window", frac*100)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.Scale = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("bad config should fail")
	}
	cfg = tinyConfig(1)
	cfg.Profiles = []isp.Profile{{Name: "broken"}}
	if _, err := Generate(cfg); err == nil {
		t.Error("bad profile should fail")
	}
}

func TestConnectedDaysAccounting(t *testing.T) {
	w := generate(t, tinyConfig(7))
	for id, meta := range w.Dataset.Probes {
		var secs int64
		for _, e := range w.Dataset.ConnLogs[id] {
			secs += int64(e.End - e.Start)
		}
		if got, want := meta.ConnectedDays, float64(secs)/86400; got < want-0.01 || got > want+0.01 {
			t.Errorf("probe %d ConnectedDays = %v, want %v", id, got, want)
		}
	}
}
