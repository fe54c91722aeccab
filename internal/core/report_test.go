package core

import "testing"

func TestRunOptionsFigure9Pinning(t *testing.T) {
	w, _ := paperWorld(t)
	rep := runReport(t, w.Dataset, Config{Options: Options{Figure9ASNs: []uint32{3320}}})
	if len(rep.Figure9) != 1 || rep.Figure9[0].ASN != 3320 {
		t.Errorf("pinned Figure 9 = %+v", rep.Figure9)
	}
}

func TestRunOptionsFigure9Default(t *testing.T) {
	_, rep := paperWorld(t)
	// Default pins the paper's LGI/Orange pair when both exist.
	if len(rep.Figure9) != 2 {
		t.Fatalf("Figure 9 has %d ASes", len(rep.Figure9))
	}
	if rep.Figure9[0].ASN != 6830 || rep.Figure9[1].ASN != 3215 {
		t.Errorf("Figure 9 ASes = %d, %d; want LGI then Orange",
			rep.Figure9[0].ASN, rep.Figure9[1].ASN)
	}
}

func TestRunOptionsTopASes(t *testing.T) {
	w, _ := paperWorld(t)
	rep := runReport(t, w.Dataset, Config{Options: Options{TopASes: 2}})
	if len(rep.Figure2) != 2 {
		t.Errorf("TopASes 2 produced %d Figure 2 curves", len(rep.Figure2))
	}
	if len(rep.Figure7) > 2 {
		t.Errorf("TopASes 2 produced %d Figure 7 curves", len(rep.Figure7))
	}
}

func TestRunOptionsFigure3Country(t *testing.T) {
	w, _ := paperWorld(t)
	rep := runReport(t, w.Dataset, Config{Options: Options{Figure3Country: "FR", Figure3MinYears: 1}})
	if len(rep.Figure3) == 0 {
		t.Fatal("no French ASes in Figure 3")
	}
	for _, c := range rep.Figure3 {
		// Orange and Free SAS are the French profiles; SFR lacks the
		// total-time floor some seeds.
		if c.ASN != 3215 && c.ASN != 12322 && c.ASN != 15557 {
			t.Errorf("unexpected AS%d in French Figure 3", c.ASN)
		}
	}
}

func TestReportExtensionsPopulated(t *testing.T) {
	_, rep := paperWorld(t)
	if len(rep.LinkTypes) == 0 {
		t.Error("LinkTypes empty")
	}
	if len(rep.AdminEvents) == 0 {
		t.Error("AdminEvents empty")
	}
	if rep.ChurnMean <= 0 {
		t.Error("ChurnMean not computed")
	}
	if rep.V6 == nil || len(rep.V6.Probes) == 0 {
		t.Error("V6 analysis empty")
	}
}
