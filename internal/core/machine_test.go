package core

import (
	"fmt"
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
)

// TestMachineMatchesSliceReference runs every probe of a generated
// world through Detect and checks the machine, list by list, against
// the slice detectors it replaced (reference_test.go).
func TestMachineMatchesSliceReference(t *testing.T) {
	ds := testDataset(t, 11, 0.1).Dataset
	analyzable := 0
	for _, id := range ds.ProbeIDs() {
		meta := ds.Probes[id]
		m := Detect(ds, id, nil)
		ev := m.Events(meta)
		entries, _ := stripTestingEntry(ds.ConnLogs[id])

		wantCat, wantHome, wantMultiAS := refClassify(ds, meta)
		if got := m.Category(meta); got != wantCat {
			t.Fatalf("probe %d: category %v, reference %v", id, got, wantCat)
		}
		if wantCat == CatAnalyzable {
			analyzable++
			if m.Home() != wantHome || m.MultiAS != wantMultiAS {
				t.Errorf("probe %d: home AS %d multi-AS %v, reference %d %v", id, m.Home(), m.MultiAS, wantHome, wantMultiAS)
			}
			view := &ProbeView{Changes: V4Changes(entries)}
			if want := refPrefixChanges(ds, view); m.Prefix != want {
				t.Errorf("probe %d: prefix row %+v, reference %+v", id, m.Prefix, want)
			}
		}
		if m.Changes != int64(len(V4Changes(entries))) {
			t.Errorf("probe %d: %d changes, reference %d", id, m.Changes, len(V4Changes(entries)))
		}
		var hours []float64
		for _, d := range V4Durations(entries) {
			hours = append(hours, d.Hours())
		}
		if !reflect.DeepEqual(ev.RawHours, hours) {
			t.Errorf("probe %d: durations %v, reference %v", id, ev.RawHours, hours)
		}
		if !reflect.DeepEqual(ev.Gaps, gapSpans(entries)) {
			t.Errorf("probe %d: gaps differ from the reference", id)
		}
		rounds := ds.KRoot[id]
		if want := refNetworkOutages(rounds); !reflect.DeepEqual(ev.Networks, want) {
			t.Errorf("probe %d: network outages %v, reference %v", id, ev.Networks, want)
		}
		reboots := refReboots(ds.Uptime[id])
		if !reflect.DeepEqual(ev.Reboots, reboots) {
			t.Errorf("probe %d: reboots %v, reference %v", id, ev.Reboots, reboots)
		}
		if want := refRebootGaps(reboots, rounds); len(want) > 0 && !reflect.DeepEqual(ev.RebootGaps, want) {
			t.Errorf("probe %d: reboot gaps %v, reference %v", id, ev.RebootGaps, want)
		}
	}
	if analyzable == 0 {
		t.Fatal("no analyzable probe in the world")
	}
}

// TestEachRecordOrder pins the merged feed order: by time, and on ties
// connection entries, then k-root rounds, then uptime records.
func TestEachRecordOrder(t *testing.T) {
	ds := atlasdata.NewDataset()
	ds.ConnLogs[1] = []atlasdata.ConnLogEntry{v4e(1, 100, 150, "10.0.0.1"), v4e(1, 300, 400, "10.0.0.2")}
	ds.KRoot[1] = []atlasdata.KRootRound{round(100, 3, 10), round(200, 3, 10), round(300, 3, 10)}
	ds.Uptime[1] = []atlasdata.UptimeRecord{{Probe: 1, Timestamp: 50}, {Probe: 1, Timestamp: 100}, {Probe: 1, Timestamp: 300}}
	var got []string
	rec := func(kind string, ts int64) { got = append(got, fmt.Sprintf("%s:%d", kind, ts)) }
	sink := orderSink{rec}
	if err := ds.EachRecord(1, sink); err != nil {
		t.Fatal(err)
	}
	want := []string{"up:50", "conn:100", "kroot:100", "up:100", "kroot:200", "conn:300", "kroot:300", "up:300"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

type orderSink struct{ rec func(string, int64) }

func (s orderSink) ConnLog(e atlasdata.ConnLogEntry) error { s.rec("conn", int64(e.Start)); return nil }
func (s orderSink) KRoot(k atlasdata.KRootRound) error {
	s.rec("kroot", int64(k.Timestamp))
	return nil
}
func (s orderSink) Uptime(u atlasdata.UptimeRecord) error {
	s.rec("up", int64(u.Timestamp))
	return nil
}
