package core

import (
	"testing"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
)

// buildDS assembles a dataset with one routed /16 per AS used in tests.
func buildDS(t *testing.T) *atlasdata.Dataset {
	t.Helper()
	ds := atlasdata.NewDataset()
	tbl, err := pfx2as.NewTable([]pfx2as.Entry{
		{Prefix: ip4.MustParsePrefix("10.0.0.0/16"), ASN: asdb.ASN(100)},
		{Prefix: ip4.MustParsePrefix("10.1.0.0/16"), ASN: asdb.ASN(100)},
		{Prefix: ip4.MustParsePrefix("20.0.0.0/16"), ASN: asdb.ASN(200)},
		{Prefix: ip4.MustParsePrefix("193.0.0.0/21"), ASN: asdb.ASN(3333)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for m := pfx2as.Month(201501); m <= 201512; m++ {
		ds.Pfx2AS.Put(m, tbl)
	}
	return ds
}

func addProbe(ds *atlasdata.Dataset, id int, version atlasdata.ProbeVersion, tags []string, entries ...atlasdata.ConnLogEntry) {
	pid := atlasdata.ProbeID(id)
	var secs int64
	for _, e := range entries {
		secs += int64(e.End.Sub(e.Start))
	}
	ds.Probes[pid] = atlasdata.ProbeMeta{
		ID: pid, Country: "DE", Version: version, Tags: tags,
		ConnectedDays: float64(secs) / 86400,
	}
	ds.ConnLogs[pid] = entries
}

// longSessions builds entries spanning most of the year so probes pass
// the 30-day filter. addrs lists the address per ~37-day session.
func longSessions(probe int, addrs ...string) []atlasdata.ConnLogEntry {
	var out []atlasdata.ConnLogEntry
	t := simclock.StudyStart
	span := simclock.Duration(37 * simclock.Day)
	for _, a := range addrs {
		if a == "v6" {
			out = append(out, v6e(probe, t, t.Add(span)))
		} else {
			out = append(out, v4e(probe, t, t.Add(span), a))
		}
		t = t.Add(span + 20*simclock.Minute)
	}
	return out
}

func TestFilterCategories(t *testing.T) {
	ds := buildDS(t)

	// 1: short-lived.
	addProbe(ds, 1, atlasdata.V3, nil, v4e(1, 0, 86400, "10.0.0.1"))
	// 2: never changed.
	addProbe(ds, 2, atlasdata.V3, nil, longSessions(2, "10.0.0.2", "10.0.0.2", "10.0.0.2", "10.0.0.2")...)
	// 3: dual stack.
	addProbe(ds, 3, atlasdata.V3, nil, longSessions(3, "10.0.0.3", "v6", "10.0.0.4", "10.0.0.5")...)
	// 4: IPv6 only.
	addProbe(ds, 4, atlasdata.V3, nil, longSessions(4, "v6", "v6", "v6", "v6")...)
	// 5: tagged multihomed.
	addProbe(ds, 5, atlasdata.V3, []string{atlasdata.TagMultihomed},
		longSessions(5, "10.0.0.6", "10.0.0.7", "10.0.0.6", "10.0.0.8")...)
	// 6: behavioural multihomed — fixed 10.0.0.9 alternating.
	addProbe(ds, 6, atlasdata.V3, nil,
		longSessions(6, "10.0.0.9", "10.0.1.1", "10.0.0.9", "10.0.1.2", "10.0.0.9", "10.0.1.3")...)
	// 7: testing-only: testing address then one stable address.
	addProbe(ds, 7, atlasdata.V3, nil,
		longSessions(7, "193.0.0.78", "10.0.0.10", "10.0.0.10", "10.0.0.10")...)
	// 8: analyzable, single AS.
	addProbe(ds, 8, atlasdata.V3, nil,
		longSessions(8, "10.0.0.11", "10.0.1.12", "10.0.0.13", "10.0.1.14")...)
	// 9: analyzable but multi-AS (10/8 AS100 -> 20/8 AS200).
	addProbe(ds, 9, atlasdata.V3, nil,
		longSessions(9, "10.0.0.15", "10.0.0.16", "20.0.0.1", "20.0.0.2")...)

	res := Filter(ds)

	wants := map[Category][]atlasdata.ProbeID{
		CatShortLived:            {1},
		CatNeverChanged:          {2},
		CatDualStack:             {3},
		CatIPv6Only:              {4},
		CatTaggedMultihomed:      {5},
		CatBehaviouralMultihomed: {6},
		CatTestingOnly:           {7},
		CatAnalyzable:            {8, 9},
	}
	for cat, want := range wants {
		got := res.ByCategory[cat]
		if len(got) != len(want) {
			t.Errorf("%v: got %v, want %v", cat, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: got %v, want %v", cat, got, want)
			}
		}
	}

	if len(res.GeoProbes) != 2 {
		t.Errorf("GeoProbes = %v", res.GeoProbes)
	}
	if len(res.ASProbes) != 1 || res.ASProbes[0] != 8 {
		t.Errorf("ASProbes = %v", res.ASProbes)
	}
	if !res.Views[9].MultiAS {
		t.Error("probe 9 should be multi-AS")
	}
	if res.Views[8].ASN != 100 {
		t.Errorf("probe 8 home AS = %v, want 100", res.Views[8].ASN)
	}
}

func TestFilterStripsTestingBeforeChangeCount(t *testing.T) {
	ds := buildDS(t)
	// Testing address followed by real changes: analyzable, and the
	// testing entry must not appear in the view.
	addProbe(ds, 1, atlasdata.V3, nil,
		longSessions(1, "193.0.0.78", "10.0.0.1", "10.0.1.2", "10.0.0.3")...)
	res := Filter(ds)
	view, ok := res.Views[1]
	if !ok {
		t.Fatal("probe 1 should be analyzable")
	}
	if len(view.Entries) != 3 {
		t.Errorf("entries = %d, want 3 after strip", len(view.Entries))
	}
	if len(view.Changes) != 2 {
		t.Errorf("changes = %d, want 2", len(view.Changes))
	}
}

func TestAlternatingDetector(t *testing.T) {
	alternating := func(addrs ...string) bool {
		var m Machine
		var log []atlasdata.ConnLogEntry
		t0 := simclock.Time(0)
		for _, a := range addrs {
			log = append(log, v4e(1, t0, t0+100, a))
			m.Conn(log[len(log)-1], nil, nil)
			t0 += 200
		}
		if got, want := m.alternating(), alternatingAddresses(log); got != want {
			t.Fatalf("%v: machine says %v, the slice reference %v", addrs, got, want)
		}
		return m.alternating()
	}
	if !alternating("1.1.1.1", "2.2.2.2", "1.1.1.1", "3.3.3.3", "1.1.1.1", "4.4.4.4") {
		t.Error("clear alternation not detected")
	}
	if alternating("1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4", "5.5.5.5", "6.6.6.6") {
		t.Error("monotone renumbering misdetected")
	}
	if alternating("1.1.1.1", "2.2.2.2", "1.1.1.1") {
		t.Error("too few runs to conclude")
	}
	// One accidental return among many runs must not trigger: two
	// separated runs only.
	if alternating("1.1.1.1", "2.2.2.2", "3.3.3.3", "1.1.1.1", "4.4.4.4", "5.5.5.5", "6.6.6.6", "7.7.7.7", "8.8.8.8") {
		t.Error("single accidental reuse misdetected")
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range Categories {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("category %d has no label", int(c))
		}
	}
}
