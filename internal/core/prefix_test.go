package core

import (
	"testing"

	"dynaddr/internal/atlasdata"
)

func TestPrefixChangesCounting(t *testing.T) {
	ds := buildDS(t)
	// Probe with three changes:
	//  10.0.0.1 -> 10.1.0.2   different BGP (/16s), different /16, same /8
	//  10.1.0.2 -> 10.1.0.3   same BGP, same /16, same /8
	//  10.1.0.3 -> 10.0.0.4   different BGP, different /16, same /8
	addProbe(ds, 1, atlasdata.V3, nil,
		longSessions(1, "10.0.0.1", "10.1.0.2", "10.1.0.3", "10.0.0.4")...)
	res := Filter(ds)
	row := PrefixAllOver(res.ASProbes, perProbePrefix(ds, res))
	if row.Changes != 3 {
		t.Fatalf("changes = %d, want 3", row.Changes)
	}
	if row.DiffBGP != 2 {
		t.Errorf("DiffBGP = %d, want 2", row.DiffBGP)
	}
	if row.DiffS16 != 2 {
		t.Errorf("DiffS16 = %d, want 2", row.DiffS16)
	}
	if row.DiffS8 != 0 {
		t.Errorf("DiffS8 = %d, want 0", row.DiffS8)
	}
	if row.Unrouted != 0 {
		t.Errorf("Unrouted = %d", row.Unrouted)
	}
	if row.FracBGP() < 0.66 || row.FracBGP() > 0.67 {
		t.Errorf("FracBGP = %v", row.FracBGP())
	}
}

// perProbePrefix computes every AS-analyzable probe's Table 7 counters,
// as Run's prefix stage does.
func perProbePrefix(ds *atlasdata.Dataset, res *FilterResult) map[atlasdata.ProbeID]PrefixChangeRow {
	out := make(map[atlasdata.ProbeID]PrefixChangeRow)
	for _, id := range res.ASProbes {
		out[id] = ProbePrefixChanges(ds, res.Views[id])
	}
	return out
}

func TestPrefixChangesByASSorting(t *testing.T) {
	ds := buildDS(t)
	addProbe(ds, 1, atlasdata.V3, nil,
		longSessions(1, "10.0.0.1", "10.0.1.2", "10.0.0.3", "10.0.1.4")...)
	addProbe(ds, 2, atlasdata.V3, nil,
		longSessions(2, "20.0.0.1", "20.0.0.2", "20.0.0.3")...)
	res := Filter(ds)
	rows := PrefixRowsOver(ByAS(res), perProbePrefix(ds, res))
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].ASN != 100 || rows[0].Changes != 3 {
		t.Errorf("row 0 = %+v, want AS100 with 3 changes", rows[0])
	}
	if rows[1].ASN != 200 || rows[1].Changes != 2 {
		t.Errorf("row 1 = %+v", rows[1])
	}
	// AS200's changes stay inside one /16: zero spread.
	if rows[1].FracBGP() != 0 || rows[1].FracS16() != 0 || rows[1].FracS8() != 0 {
		t.Errorf("AS200 spread = %v/%v/%v, want zero", rows[1].FracBGP(), rows[1].FracS16(), rows[1].FracS8())
	}
}

func TestPrefixChangeRowFracsEmpty(t *testing.T) {
	var row PrefixChangeRow
	if row.FracBGP() != 0 || row.FracS16() != 0 || row.FracS8() != 0 {
		t.Error("empty row fractions should be zero")
	}
}
