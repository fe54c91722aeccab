package core

import (
	"math"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func durOf(probe int, hours float64) AddressDuration {
	start := simclock.Time(1000000)
	return AddressDuration{
		Probe: atlasdata.ProbeID(probe),
		Addr:  ip4.MustParseAddr("10.0.0.1"),
		Start: start,
		End:   start.Add(simclock.Duration(hours * 3600)),
	}
}

func TestQuantizeHours(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{23.6, 24}, {24.4, 24}, {24.6, 25},
		{0.2, 1}, {0.7, 1}, {167.8, 168}, {12.1, 12},
	}
	for _, c := range cases {
		if got := QuantizeHours(c.in); got != c.want {
			t.Errorf("QuantizeHours(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTTFWeighting(t *testing.T) {
	// Paper §4.1's worked example: durations 14.2, 0.7, 7.2 and three
	// near-24h durations. The 24h bucket holds ~3/4 of the total time
	// even though it is only half the count.
	durations := []AddressDuration{
		durOf(1, 14.2), durOf(1, 0.7), durOf(1, 7.2),
		durOf(1, 23.6), durOf(1, 23.6), durOf(1, 23.6),
	}
	ttf := TTF(durations)
	got := ttf.MassAt(24)
	if got < 0.70 || got > 0.80 {
		t.Errorf("f_24 = %v, want ~0.76", got)
	}
}

func TestClassifyPeriodicDaily(t *testing.T) {
	var durations []AddressDuration
	// 300 daily durations plus noise: clearly periodic at 24h.
	for i := 0; i < 300; i++ {
		durations = append(durations, durOf(1, 23.7))
	}
	for i := 0; i < 20; i++ {
		durations = append(durations, durOf(1, float64(i%12)+0.5))
	}
	pp, ok := ClassifyPeriodic(durations)
	if !ok {
		t.Fatal("daily probe not classified periodic")
	}
	if pp.D != 24 {
		t.Errorf("D = %v, want 24", pp.D)
	}
	if pp.Frac < 0.9 {
		t.Errorf("Frac = %v, want > 0.9", pp.Frac)
	}
	if !pp.MaxLeD || !pp.Harmonic {
		t.Errorf("MaxLeD = %v, Harmonic = %v, want both true", pp.MaxLeD, pp.Harmonic)
	}
}

func TestClassifyPeriodicHarmonics(t *testing.T) {
	var durations []AddressDuration
	for i := 0; i < 50; i++ {
		durations = append(durations, durOf(1, 23.8))
	}
	durations = append(durations, durOf(1, 47.7)) // skipped reset: 2x24
	pp, ok := ClassifyPeriodic(durations)
	if !ok || pp.D != 24 {
		t.Fatalf("classification = %+v, %v", pp, ok)
	}
	if pp.MaxLeD {
		t.Error("MaxLeD should be false with a 48h duration present")
	}
	if !pp.Harmonic {
		t.Error("48h duration is harmonic of 24h")
	}

	durations = append(durations, durOf(1, 55)) // non-harmonic
	pp, ok = ClassifyPeriodic(durations)
	if !ok {
		t.Fatal("still periodic")
	}
	if pp.Harmonic {
		t.Error("55h duration breaks the harmonic property")
	}
}

func TestClassifyPeriodicNegative(t *testing.T) {
	var durations []AddressDuration
	// Spread durations: no single mode above 0.25.
	for i := 1; i <= 20; i++ {
		durations = append(durations, durOf(1, float64(i*13)))
	}
	if pp, ok := ClassifyPeriodic(durations); ok {
		t.Errorf("spread durations classified periodic: %+v", pp)
	}
	if _, ok := ClassifyPeriodic(nil); ok {
		t.Error("empty durations classified periodic")
	}
}

func TestClassifyPeriodicSlack(t *testing.T) {
	// A duration at exactly D+5% is still within MAX<=d per the paper's
	// adjusted bound.
	var durations []AddressDuration
	for i := 0; i < 50; i++ {
		durations = append(durations, durOf(1, 24))
	}
	durations = append(durations, durOf(1, 24*1.049))
	pp, ok := ClassifyPeriodic(durations)
	if !ok || !pp.MaxLeD {
		t.Errorf("duration within 5%% slack broke MaxLeD: %+v", pp)
	}
}

func TestHourHistogramCounts(t *testing.T) {
	ds := buildDS(t)
	// A probe with three 24h durations each ending 04:xx GMT.
	day := 24 * simclock.Hour
	t0 := simclock.Date(2015, 3, 1, 4, 10, 0)
	entries := []atlasdata.ConnLogEntry{
		v4e(1, t0.Add(-day), t0, "10.0.0.1"),
		v4e(1, t0.Add(20*simclock.Minute), t0.Add(day), "10.0.0.2"),
		v4e(1, t0.Add(day+40*simclock.Minute), t0.Add(2*day+20*simclock.Minute), "10.0.0.3"),
		v4e(1, t0.Add(2*day+40*simclock.Minute), t0.Add(3*day+20*simclock.Minute), "10.0.0.4"),
		v4e(1, t0.Add(3*day+40*simclock.Minute), t0.Add(4*day), "10.0.0.5"),
	}
	var secs int64
	for _, e := range entries {
		secs += int64(e.End.Sub(e.Start))
	}
	// Stretch connected days over the threshold.
	ds.Probes[1] = atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}
	fileLog(ds, 1, entries)
	res := Filter(ds)
	if _, ok := res.Views[1]; !ok {
		t.Fatal("probe should be analyzable")
	}
	hist := HourHistogram(res, []atlasdata.ProbeID{1}, 24)
	total := 0
	for h, c := range hist {
		total += c
		if c > 0 && h != 4 {
			t.Errorf("count at hour %d, expected all at hour 4", h)
		}
	}
	if total != 3 {
		t.Errorf("total histogram count = %d, want 3 bounded 24h durations", total)
	}
}

func TestGroupTTFAndAggregations(t *testing.T) {
	ds := buildDS(t)
	addProbe(ds, 1, atlasdata.V3, nil, longSessions(1, "10.0.0.1", "10.0.1.2", "10.0.0.3", "10.0.1.4")...)
	addProbe(ds, 2, atlasdata.V3, nil, longSessions(2, "10.0.0.5", "10.0.1.6", "10.0.0.7", "10.0.1.8")...)
	res := Filter(ds)
	ttfs := ProbeTTFs(res)
	if len(ttfs) != 2 {
		t.Fatalf("ttfs = %d", len(ttfs))
	}
	g := GroupTTF(ttfs, res.GeoProbes)
	if math.Abs(g.Total()-(ttfs[1].Total()+ttfs[2].Total())) > 1e-9 {
		t.Error("group total must equal the sum of member totals")
	}
	byAS := ByAS(res)
	if len(byAS[100]) != 2 {
		t.Errorf("ByAS[100] = %v", byAS[100])
	}
	byCountry := ByCountry(res)
	if len(byCountry["DE"]) != 2 {
		t.Errorf("ByCountry[DE] = %v", byCountry["DE"])
	}
	byCont := ByContinent(res)
	if len(byCont["EU"]) != 2 {
		t.Errorf("ByContinent[EU] = %v", byCont["EU"])
	}
}
