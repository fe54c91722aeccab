package core

import (
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

// networksOf feeds rounds through a Machine and returns its network
// outages at the end of the input, checked against the slice reference.
func networksOf(t *testing.T, rounds []atlasdata.KRootRound) []NetworkOutage {
	t.Helper()
	m := Machine{Probe: 1, KeepEvents: true}
	for _, r := range rounds {
		m.KRoot(r)
	}
	got := m.Events(atlasdata.ProbeMeta{}).Networks
	if want := refNetworkOutages(rounds); !reflect.DeepEqual(got, want) {
		t.Fatalf("machine outages %v, slice reference %v", got, want)
	}
	return got
}

// rebootsOf feeds uptime records through a Machine and returns its
// reboots, checked against the slice reference.
func rebootsOf(t *testing.T, recs []atlasdata.UptimeRecord) []Reboot {
	t.Helper()
	var m Machine
	m.KeepEvents = true
	if len(recs) > 0 {
		m.Probe = recs[0].Probe
	}
	for _, r := range recs {
		m.Uptime(r)
	}
	if want := refReboots(recs); !reflect.DeepEqual(m.Reboots, want) || m.RebootCount != int64(len(want)) {
		t.Fatalf("machine reboots %v (%d), slice reference %v", m.Reboots, m.RebootCount, want)
	}
	return m.Reboots
}

func round(ts simclock.Time, success uint16, lts int32) atlasdata.KRootRound {
	return atlasdata.KRootRound{Probe: 1, Timestamp: ts, Sent: 3, Success: success, LTS: lts}
}

// stored is probe 1's rounds as a Dataset stores them.
func stored(rounds ...atlasdata.KRootRound) []atlasdata.KRootSample {
	s, err := atlasdata.KRootSeries(1, rounds)
	if err != nil {
		panic(err)
	}
	return s
}

// storedUptime is probe 1's uptime records as a Dataset stores them.
func storedUptime(recs []atlasdata.UptimeRecord) []atlasdata.UptimeSample {
	s, err := atlasdata.UptimeSeries(1, recs)
	if err != nil {
		panic(err)
	}
	return s
}

func TestDetectNetworkOutagesPaperTable3(t *testing.T) {
	// The paper's Table 3: six all-lost rounds with LTS growing from 151
	// to 1103, bracketed by good rounds.
	base := simclock.Date(2015, 1, 27, 9, 1, 42)
	min := func(m int, s int) simclock.Time { return base.Add(simclock.Duration(m*60 + s)) }
	rounds := []atlasdata.KRootRound{
		round(base, 3, 86),
		round(min(4, 6), 0, 151),
		round(min(8, 3), 0, 388),
		round(min(11, 54), 0, 619),
		round(min(16, 7), 0, 872),
		round(min(19, 58), 0, 1103),
		round(min(23, 57), 3, 1342),
		round(min(27, 54), 3, 146),
	}
	got := networksOf(t, rounds)
	if len(got) != 1 {
		t.Fatalf("outages = %d, want 1", len(got))
	}
	if got[0].Start != min(4, 6) || got[0].End != min(19, 58) {
		t.Errorf("outage = [%v, %v]", got[0].Start, got[0].End)
	}
}

func TestDetectNetworkOutagesRequiresLTSGrowth(t *testing.T) {
	// All-lost rounds with flat LTS mean the probe still reached the
	// controller: not a network outage.
	rounds := []atlasdata.KRootRound{
		round(0, 3, 100),
		round(240, 0, 100),
		round(480, 0, 100),
		round(720, 3, 100),
	}
	if got := networksOf(t, rounds); len(got) != 0 {
		t.Errorf("flat-LTS loss run detected as outage: %v", got)
	}
}

func TestDetectNetworkOutagesSingleRound(t *testing.T) {
	// One lost round qualifies only with LTS past the sync bound.
	low := []atlasdata.KRootRound{round(0, 3, 50), round(240, 0, 200), round(480, 3, 60)}
	if got := networksOf(t, low); len(got) != 0 {
		t.Errorf("single low-LTS loss detected: %v", got)
	}
	high := []atlasdata.KRootRound{round(0, 3, 50), round(240, 0, 500), round(480, 3, 60)}
	got := networksOf(t, high)
	if len(got) != 1 || got[0].Start != 240 || got[0].End != 240 {
		t.Errorf("single high-LTS loss = %v, want one zero-span outage", got)
	}
}

func TestDetectNetworkOutagesMultipleRuns(t *testing.T) {
	rounds := []atlasdata.KRootRound{
		round(0, 3, 50),
		round(240, 0, 300), round(480, 0, 540),
		round(720, 3, 60),
		round(960, 0, 300), round(1200, 0, 540), round(1440, 0, 780),
		round(1680, 3, 60),
	}
	got := networksOf(t, rounds)
	if len(got) != 2 {
		t.Fatalf("outages = %d, want 2", len(got))
	}
	if got[0].Duration() != 240 || got[1].Duration() != 480 {
		t.Errorf("durations = %v, %v", got[0].Duration(), got[1].Duration())
	}
}

func TestDetectRebootsPaperTable4(t *testing.T) {
	// Table 4: probe 206's counter drops from 315038 to 19.
	recs := []atlasdata.UptimeRecord{
		{Probe: 206, Timestamp: simclock.Date(2015, 1, 1, 3, 15, 18), Uptime: 262531},
		{Probe: 206, Timestamp: simclock.Date(2015, 1, 1, 17, 50, 26), Uptime: 315038},
		{Probe: 206, Timestamp: simclock.Date(2015, 1, 1, 17, 50, 55), Uptime: 19},
		{Probe: 206, Timestamp: simclock.Date(2015, 1, 1, 17, 53, 59), Uptime: 203},
		{Probe: 206, Timestamp: simclock.Date(2015, 1, 1, 18, 59, 44), Uptime: 4147},
	}
	got := rebootsOf(t, recs)
	if len(got) != 1 {
		t.Fatalf("reboots = %d, want 1", len(got))
	}
	want := simclock.Date(2015, 1, 1, 17, 50, 36)
	if got[0].At != want {
		t.Errorf("reboot at %v, want %v", got[0].At, want)
	}
}

func TestDetectRebootsIgnoresDrift(t *testing.T) {
	// Counter values consistent with continuous uptime (boot instant
	// stable within slack) are not reboots.
	recs := []atlasdata.UptimeRecord{
		{Probe: 1, Timestamp: 10000, Uptime: 5000},
		{Probe: 1, Timestamp: 20000, Uptime: 15010}, // 10s skew
		{Probe: 1, Timestamp: 30000, Uptime: 24990},
	}
	if got := rebootsOf(t, recs); len(got) != 0 {
		t.Errorf("drift detected as reboot: %v", got)
	}
}

func TestRebootsPerDayAndFirmwareDetection(t *testing.T) {
	// Background: 5 probes reboot on scattered days; firmware day 100
	// and 101 spike to 40 probes.
	reboots := make(map[atlasdata.ProbeID][]Reboot)
	day := func(d int) simclock.Time {
		return simclock.StudyStart.Add(simclock.Duration(d)*simclock.Day + simclock.Hour)
	}
	for p := 1; p <= 40; p++ {
		id := atlasdata.ProbeID(p)
		reboots[id] = append(reboots[id], Reboot{Probe: id, At: day(100)})
		reboots[id] = append(reboots[id], Reboot{Probe: id, At: day(101)})
	}
	for p := 1; p <= 5; p++ {
		id := atlasdata.ProbeID(p)
		for d := 0; d < 365; d += 7 {
			reboots[id] = append(reboots[id], Reboot{Probe: id, At: day(d)})
		}
	}
	perDay := RebootsPerDay(reboots)
	if len(perDay) != 365 {
		t.Fatalf("perDay length = %d", len(perDay))
	}
	if perDay[100] != 40 || perDay[101] != 40 {
		t.Errorf("spike days = %d, %d, want 40", perDay[100], perDay[101])
	}
	fw := DetectFirmwareDays(perDay)
	if !reflect.DeepEqual(fw, []int{100}) {
		t.Errorf("firmware days = %v, want [100]", fw)
	}
}

func TestDetectFirmwareDaysNeedsTwoConsecutive(t *testing.T) {
	perDay := make([]int, 365)
	for i := range perDay {
		perDay[i] = 10
	}
	perDay[50] = 100 // single-day spike: not a push
	if fw := DetectFirmwareDays(perDay); len(fw) != 0 {
		t.Errorf("single-day spike flagged: %v", fw)
	}
	perDay[200], perDay[201] = 100, 90
	fw := DetectFirmwareDays(perDay)
	if !reflect.DeepEqual(fw, []int{200}) {
		t.Errorf("firmware days = %v, want [200]", fw)
	}
}

func TestFilterFirmwareReboots(t *testing.T) {
	day := func(d int, h int) simclock.Time {
		return simclock.StudyStart.Add(simclock.Duration(d)*simclock.Day + simclock.Duration(h)*simclock.Hour)
	}
	reboots := []Reboot{
		{Probe: 1, At: day(50, 3)},  // background
		{Probe: 1, At: day(100, 5)}, // firmware install
		{Probe: 1, At: day(101, 9)}, // second reboot after push: kept
		{Probe: 1, At: day(200, 1)}, // background
	}
	kept := FilterFirmwareReboots(reboots, []int{100})
	if len(kept) != 3 {
		t.Fatalf("kept = %d, want 3", len(kept))
	}
	for _, r := range kept {
		if r.At == day(100, 5) {
			t.Error("firmware reboot not dropped")
		}
	}
	// No firmware days: identity.
	if got := FilterFirmwareReboots(reboots, nil); len(got) != len(reboots) {
		t.Error("no-push filter should keep everything")
	}
}

func TestDetectPowerOutages(t *testing.T) {
	rounds := []atlasdata.KRootRound{
		round(0, 3, 60),
		round(240, 3, 60),
		// Silence 240..2000 (~29 min) around a reboot at 1500.
		round(2000, 3, 60),
		round(2240, 3, 60),
	}
	reboots := []Reboot{{Probe: 1, At: 1500}}
	got := detectPowerOutages(reboots, rounds)
	if len(got) != 1 {
		t.Fatalf("power outages = %d, want 1", len(got))
	}
	if got[0].GapStart != 240 || got[0].GapEnd != 2000 {
		t.Errorf("gap = [%v, %v]", got[0].GapStart, got[0].GapEnd)
	}
	if got[0].Duration() != 1760 {
		t.Errorf("duration = %v", got[0].Duration())
	}
}

func TestDetectPowerOutagesRejectsTightGap(t *testing.T) {
	// Rounds straddle the reboot with only one interval missing: a clean
	// restart, not a power outage.
	rounds := []atlasdata.KRootRound{
		round(0, 3, 60), round(240, 3, 60), round(540, 3, 60),
	}
	reboots := []Reboot{{Probe: 1, At: 400}}
	if got := detectPowerOutages(reboots, rounds); len(got) != 0 {
		t.Errorf("tight gap flagged as power outage: %v", got)
	}
}

func TestDetectPowerOutagesNoTrailingEvidence(t *testing.T) {
	rounds := []atlasdata.KRootRound{round(0, 3, 60)}
	reboots := []Reboot{{Probe: 1, At: 5000}}
	if got := detectPowerOutages(reboots, rounds); len(got) != 0 {
		t.Error("reboot after the last round must not be classified")
	}
}
