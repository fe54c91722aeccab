package atlasapi

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/wire"
)

// FuzzScrapeFormats feeds arbitrary bytes to the scrape-side decoders:
// k-root ping results, a connection-history page, uptime reports and
// the probe archive. None may panic. Whatever one accepts, its writer
// must render and the decoder read back unchanged (the archive's
// connected days to within the second its uptime field counts), and
// every accepted session, k-root round and uptime record must
// round-trip through the binary wire codec, so a scraped record can
// always be logged and replayed.
func FuzzScrapeFormats(f *testing.F) {
	for _, seed := range []string{
		`{"prb_id":16893,"msm_id":1001,"timestamp":1422349302,"sent":3,"rcvd":3,"lts":86,"result":[{"rtt":20}]}`,
		`{"prb_id":7,"timestamp":1,"sent":65535,"rcvd":0,"lts":2147483647}` + "\n" + `{"prb_id":4294967295,"timestamp":2,"sent":0,"rcvd":0,"lts":0}`,
		`{"prb_id":7,"timestamp":1,"sent":65536,"rcvd":1,"lts":30}`,
		`{"prb_id":-1,"timestamp":1,"sent":3,"rcvd":3,"lts":30}`,
		`{"prb_id":4294967296,"timestamp":1,"sent":3,"rcvd":3,"lts":30}`,
		`{"prb_id":7,"timestamp":1,"sent":3,"rcvd":3,"lts":4294967356}`,
		`{"prb_id":7,"timestamp":4294967295,"sent":3,"rcvd":3,"lts":30}` + "\n" + `{"prb_id":7,"timestamp":0,"sent":3,"rcvd":3,"lts":30}`,
		`{"prb_id":7,"timestamp":4294967296,"sent":3,"rcvd":3,"lts":30}`,
		`{"prb_id":7,"timestamp":-1,"sent":3,"rcvd":3,"lts":30}`,
		`{"prb_id":206,"timestamp":4294967296,"uptime":5}`,
		`{"prb_id":206,"timestamp":1420082118,"uptime":262531}` + "\n" + `{"prb_id":206,"timestamp":1420134655,"uptime":19}`,
		`{"prb_id":206,"timestamp":1,"uptime":-5}`,
		`{"prb_id":4294967295,"timestamp":1,"uptime":5}` + "\n" + `{"prb_id":4294967296,"timestamp":2,"uptime":5}`,
		`{"prb_id":-5,"timestamp":1,"uptime":5}`,
		"# RIPE Atlas connection history for probe 206\nDec 31 03:21:34 2014\tJan  1 03:21:34 2015\t91.55.174.103\n",
		"Jan  1 00:00:00 2015\tJan  1 00:00:10 2015\t2001:db8::1\n\nJan  2 00:00:00 2015\tJan  1 00:00:00 2015\t10.0.0.1",
		"Feb 30 00:00:00 2015\tMar  1 00:00:00 2015\t1.2.3.4",
		// Session times at and past u32: Unix 0 and 2^32-1, then -1 and 2^32.
		"Jan  1 00:00:00 1970\tJan  1 00:00:00 1970\t10.0.0.1\nFeb  7 06:28:15 2106\tFeb  7 06:28:15 2106\t2001:db8::1",
		"Dec 31 23:59:59 1969\tJan  1 00:00:05 1970\t10.0.0.1",
		"Feb  7 06:28:15 2106\tFeb  7 06:28:16 2106\t10.0.0.1",
		// IPv6 literals repeated within the page (filed under two probes,
		// shared across them too).
		"Jan  1 00:00:00 2015\tJan  1 00:00:10 2015\t2001:db8::1\nJan  1 00:01:00 2015\tJan  1 00:02:00 2015\t2001:db8::1\n" +
			"Jan  1 00:03:00 2015\tJan  1 00:04:00 2015\t2001:db8::2\nJan  1 00:05:00 2015\tJan  1 00:06:00 2015\t10.0.0.1\n" +
			"Jan  1 00:07:00 2015\tJan  1 00:08:00 2015\t2001:db8::2\nJan  1 00:09:00 2015\tJan  1 00:10:00 2015\t2001:db8::1",
		`[{"id":206,"country_code":"DE","firmware_version":4790,"tags":[{"slug":"home"},{"slug":""}],"total_uptime":25920000}]`,
		`[{"id":0,"total_uptime":-1}]`,
		"{\"prb_id\":1",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ks, err := ParseKRootResults(bytes.NewReader(data)); err == nil {
			for _, k := range ks {
				payload, err := wire.AppendKRoot(nil, k)
				if err != nil {
					t.Fatalf("accepted %+v, but the wire refuses it: %v", k, err)
				}
				if got, err := wire.DecodeKRoot(payload); err != nil || got != k {
					t.Fatalf("accepted %+v, wire round trip gave %+v, %v", k, got, err)
				}
			}
			var buf bytes.Buffer
			if err := WriteKRootResults(&buf, ks); err != nil {
				t.Fatalf("WriteKRootResults of accepted rounds: %v", err)
			}
			again, err := ParseKRootResults(&buf)
			if err != nil || !reflect.DeepEqual(again, ks) {
				t.Fatalf("k-root results round trip: %+v, %v; want %+v", again, err, ks)
			}
		}

		const probe atlasdata.ProbeID = 206
		if es, err := ParseConnectionHistory(bytes.NewReader(data), probe); err == nil {
			for _, e := range es {
				payload, err := wire.AppendConnLog(nil, e)
				if err != nil {
					t.Fatalf("accepted %+v, but the wire refuses it: %v", e, err)
				}
				if got, err := wire.DecodeConnLog(payload); err != nil || got != e {
					t.Fatalf("accepted %+v, wire round trip gave %+v, %v", e, got, err)
				}
			}
			var buf bytes.Buffer
			if err := WriteConnectionHistory(&buf, probe, es); err != nil {
				t.Fatalf("WriteConnectionHistory of accepted entries: %v", err)
			}
			again, err := ParseConnectionHistory(&buf, probe)
			if err != nil || !reflect.DeepEqual(again, es) {
				t.Fatalf("connection history round trip: %+v, %v; want %+v", again, err, es)
			}
			checkStoredHistory(t, es)
		}

		if us, err := ParseUptimeResults(bytes.NewReader(data)); err == nil {
			for _, u := range us {
				payload, err := wire.AppendUptime(nil, u)
				if err != nil {
					t.Fatalf("accepted %+v, but the wire refuses it: %v", u, err)
				}
				if got, err := wire.DecodeUptime(payload); err != nil || got != u {
					t.Fatalf("accepted %+v, wire round trip gave %+v, %v", u, got, err)
				}
			}
			var buf bytes.Buffer
			if err := WriteUptimeResults(&buf, us); err != nil {
				t.Fatalf("WriteUptimeResults of accepted records: %v", err)
			}
			again, err := ParseUptimeResults(&buf)
			if err != nil || !reflect.DeepEqual(again, us) {
				t.Fatalf("uptime results round trip: %+v, %v; want %+v", again, err, us)
			}
		}

		if ps, err := ParseProbeArchive(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteProbeArchive(&buf, ps); err != nil {
				t.Fatalf("WriteProbeArchive of accepted probes: %v", err)
			}
			again, err := ParseProbeArchive(&buf)
			if err != nil || len(again) != len(ps) {
				t.Fatalf("probe archive round trip: %+v, %v; want %+v", again, err, ps)
			}
			for i, p := range again {
				want := ps[i]
				if math.Abs(p.ConnectedDays-want.ConnectedDays) <= 1.0/86400 {
					p.ConnectedDays = want.ConnectedDays
				}
				if !reflect.DeepEqual(p, want) {
					t.Fatalf("probe archive round trip: %+v, want %+v", p, want)
				}
			}
		}
	})
}

// checkStoredHistory files the accepted page es under its probe and
// under a second one, as a scrape assembles a Dataset. If that makes a
// valid Dataset, Save, Load and Save again must write the same
// connection-log bytes, and the loaded Dataset must hold each IPv6
// literal once: every session using it, under either probe, at its
// index.
func checkStoredHistory(t *testing.T, es []atlasdata.ConnLogEntry) {
	if len(es) == 0 {
		return
	}
	ds := atlasdata.NewDataset()
	lits := atlasdata.NewV6Interner(&ds.V6)
	for _, id := range []atlasdata.ProbeID{206, 207} {
		page := slices.Clone(es)
		for i := range page {
			page[i].Probe = id
		}
		s, err := atlasdata.ConnLogSeries(id, page, lits)
		if err != nil {
			t.Fatalf("ConnLogSeries refused an accepted page: %v", err)
		}
		ds.Probes[id] = atlasdata.ProbeMeta{ID: id, Version: atlasdata.V3}
		ds.ConnLogs[id] = s
	}
	ds.SortRecords()
	if ds.Validate() != nil {
		return // overlapping sessions
	}
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := ds.Save(first); err != nil {
		t.Fatalf("saving an accepted page: %v", err)
	}
	loaded, err := atlasdata.Load(first)
	if err != nil {
		t.Fatalf("loading an accepted page as saved: %v", err)
	}
	if err := loaded.Save(second); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(filepath.Join(first, "connlogs.tsv"))
	b, errB := os.ReadFile(filepath.Join(second, "connlogs.tsv"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("Save, Load, Save wrote\n%q\nthen\n%q (%v, %v)", a, b, errA, errB)
	}
	index := map[string]uint32{}
	for _, id := range []atlasdata.ProbeID{206, 207} {
		for _, e := range loaded.ConnLogs[id] {
			if e.Family != atlasdata.V6 {
				continue
			}
			lit := loaded.V6.Literal(e.Addr)
			if i, ok := index[lit]; ok && i != e.Addr {
				t.Fatalf("literal %q loaded at indexes %d and %d", lit, i, e.Addr)
			}
			index[lit] = e.Addr
		}
	}
	if len(index) != loaded.V6.Len() {
		t.Fatalf("%d literals in use, %d in the table", len(index), loaded.V6.Len())
	}
}
