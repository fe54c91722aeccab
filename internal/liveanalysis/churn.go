package liveanalysis

import (
	"fmt"

	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// ChurnCell is one study day's accumulated address-change churn, the
// sparse serialized form of a ChurnTable.
type ChurnCell struct {
	Day int                  `json:"day"`
	Row core.PrefixChangeRow `json:"row"`
}

// ChurnTable accumulates the day-bucketed address-change churn series
// (the raw operational view behind Result.Churn). Unlike the per-probe
// Detector it is shared state — one table per shard — because churn has
// no per-probe dimension: the counters are integer sums over every
// change the shard sees, whatever probe it belongs to. The dense
// day-indexed array makes each add one bounds check and a few integer
// increments, with no hashing, searching, or growth on the ingest path;
// the whole table is ~17 KB, allocated once on the first in-study
// change.
type ChurnTable struct {
	days    []core.PrefixChangeRow // one row per study day, lazily allocated
	outside core.PrefixChangeRow   // changes outside the study year
}

// studyDays is the size of the dense day array.
var studyDays = int(simclock.StudyEnd.Sub(simclock.StudyStart) / simclock.Day)

// Row returns the bucket a change observed at nextStart lands in,
// allocating the dense array on first in-study use.
func (t *ChurnTable) Row(nextStart simclock.Time) *core.PrefixChangeRow {
	day := nextStart.DayWithinStudy()
	if day < 0 {
		return &t.outside
	}
	if t.days == nil {
		t.days = make([]core.PrefixChangeRow, studyDays)
	}
	return &t.days[day]
}

// Add folds one observed address change into its day bucket.
func (t *ChurnTable) Add(ch core.AddressChange, fromPfx, toPfx ip4.Prefix, okFrom, okTo bool) {
	applyChange(t.Row(ch.NextStart), ch.From, ch.To, fromPfx, toPfx, okFrom, okTo)
}

// AppendCells appends the non-empty day buckets to dst in ascending day
// order — the sparse form checkpoints store, into a slice the caller
// reuses. The outside row is not a cell; it is serialized alongside.
func (t *ChurnTable) AppendCells(dst []ChurnCell) []ChurnCell {
	for day := range t.days {
		if t.days[day].Changes > 0 {
			dst = append(dst, ChurnCell{Day: day, Row: t.days[day]})
		}
	}
	return dst
}

// Outside returns the bucket for changes outside the study year.
func (t *ChurnTable) Outside() core.PrefixChangeRow { return t.outside }

// Restore loads the sparse checkpoint form back into the dense table,
// replacing any current contents. Cells out of day order or outside
// the study year are an error: Cells never writes them.
func (t *ChurnTable) Restore(cells []ChurnCell, outside core.PrefixChangeRow) error {
	for i, c := range cells {
		if c.Day < 0 || c.Day >= studyDays {
			return fmt.Errorf("liveanalysis: churn cell for day %d outside the study's %d days", c.Day, studyDays)
		}
		if i > 0 && c.Day <= cells[i-1].Day {
			return fmt.Errorf("liveanalysis: churn cell for day %d out of order", c.Day)
		}
	}
	t.days = nil
	t.outside = outside
	if len(cells) > 0 {
		t.days = make([]core.PrefixChangeRow, studyDays)
		for _, c := range cells {
			t.days[c.Day] = c.Row
		}
	}
	return nil
}

// AccumulateInto folds the table into a shared day-keyed map (day -1 =
// outside the study year), the shape the Compute fold consumes.
func (t *ChurnTable) AccumulateInto(into map[int]core.PrefixChangeRow) {
	for day := range t.days {
		if t.days[day].Changes > 0 {
			r := into[day]
			r.Accumulate(t.days[day])
			into[day] = r
		}
	}
	if t.outside.Changes > 0 {
		r := into[-1]
		r.Accumulate(t.outside)
		into[-1] = r
	}
}
