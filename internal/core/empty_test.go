package core

import (
	"testing"

	"dynaddr/internal/atlasdata"
)

// TestRunOnEmptyDataset: the full pipeline over a dataset with no
// probes must return an empty report, not panic — the behaviour a
// downstream user hits when pointing churnctl at a fresh directory.
func TestRunOnEmptyDataset(t *testing.T) {
	rep := runReport(t, atlasdata.NewDataset(), Config{})
	if len(rep.Filter.GeoProbes) != 0 || len(rep.Filter.ASProbes) != 0 {
		t.Error("empty dataset produced analyzable probes")
	}
	if len(rep.Table5) != 0 || len(rep.Table6) != 0 || len(rep.Table7ByAS) != 0 {
		t.Error("empty dataset produced table rows")
	}
	if rep.Table7All.Changes != 0 {
		t.Error("empty dataset produced changes")
	}
	if len(rep.Figure1) != 0 || len(rep.Figure2) != 0 {
		t.Error("empty dataset produced figures")
	}
	if rep.ChurnMean != 0 {
		t.Error("empty dataset produced churn")
	}
	// Rendering the empty report must not error either.
	for _, s := range []string{
		rep.RenderTable2().String(),
		rep.RenderTable5(nil).String(),
		rep.RenderTable6(nil).String(),
		rep.RenderTable7(nil).String(),
		rep.RenderFigure1().String(),
		rep.RenderFigure6().String(),
		rep.RenderChurnAndV6().String(),
	} {
		if s == "" {
			t.Error("empty report rendered to nothing")
		}
	}
}

// TestRunOnStaticOnlyDataset: a dataset where nothing ever changes must
// flow through every stage cleanly.
func TestRunOnStaticOnlyDataset(t *testing.T) {
	ds := buildDS(t)
	addProbe(ds, 1, atlasdata.V3, nil, longSessions(1, "10.0.0.1", "10.0.0.1", "10.0.0.1", "10.0.0.1")...)
	addProbe(ds, 2, atlasdata.V3, nil, longSessions(2, "10.0.0.2", "10.0.0.2", "10.0.0.2", "10.0.0.2")...)
	rep := runReport(t, ds, Config{})
	if rep.Table2[CatNeverChanged] != 2 {
		t.Errorf("never-changed count = %d", rep.Table2[CatNeverChanged])
	}
	if len(rep.Filter.GeoProbes) != 0 {
		t.Error("static probes leaked into the analyzable set")
	}
}
