package stream

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// FuzzCheckpoint feeds arbitrary bytes to loadCheckpoint and whatever
// it accepts to restoreCheckpoint on a fresh shard, as recovery and
// AdoptPartition (whose checkpoint arrives over the network) do. A
// checkpoint the state machines cannot run from must be an error, never
// a panic: a restored shard then applies one record of each kind to
// every probe and is read back through every snapshot path.
func FuzzCheckpoint(f *testing.F) {
	for _, ck := range checkpointSeeds(f) {
		b, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":1,"probes":[{"id":1,"analysis":{"reboots":[{"Probe":1,"At":5}]}}]}`))
	f.Add([]byte(`{"version":1,"probes":[{"id":1,"analysis":{"reboot_gaps":[{"Start":1,"End":0,"Open":true}]}}]}`))
	f.Add([]byte(`{"version":1,"counts":{"meta":-1},"probes":[]}`))
	f.Add([]byte(`{"version":1,"churn":[{"day":99999,"row":{}}],"probes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := loadCheckpoint(dir)
		if err != nil || ck == nil {
			return
		}
		in := &Ingester{cfg: Config{Analysis: true}}
		s := in.newShard(0)
		if err := s.restoreCheckpoint(ck); err != nil {
			return
		}
		late := simclock.StudyEnd
		for _, j := range ck.Probes {
			id := j.ID
			s.apply(record{kind: kindMeta, meta: atlasdata.ProbeMeta{ID: id, Version: atlasdata.V3, ConnectedDays: 400}})
			s.apply(record{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: id, Start: late, End: late + 60, Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.9.9.9")}})
			s.apply(record{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: id, Timestamp: late, Sent: 3, Success: 0, LTS: 900}})
			s.apply(record{kind: kindUptime, uptime: atlasdata.UptimeRecord{Probe: id, Timestamp: late + 120, Uptime: 30}})
			s.apply(record{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: id, Timestamp: late + 300, Sent: 3, Success: 3, LTS: 20}})
		}
		s.view()
		s.analysisView()
		if _, err := json.Marshal(s.buildCheckpoint()); err != nil {
			t.Fatalf("restored shard does not checkpoint: %v", err)
		}
	})
}

// checkpointSeeds checkpoints a shard fed a few probes' worth of
// sessions, rounds (a loss run included) and reboots.
func checkpointSeeds(t testing.TB) []*shardCheckpoint {
	t.Helper()
	in := NewIngester(Config{Shards: 1, Analysis: true})
	base := simclock.StudyStart
	hour := func(h int) simclock.Time { return base.Add(simclock.Duration(h) * simclock.Hour) }
	for id := atlasdata.ProbeID(1); id <= 3; id++ {
		recs := []error{
			in.Meta(atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(0), End: hour(20), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(24), End: hour(50), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(51), End: hour(70), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.3")}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(21), Sent: 3, Success: 0, LTS: 600}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(22), Sent: 3, Success: 3, LTS: 30}),
			in.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: hour(30), Uptime: 30 * 3600}),
			in.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: hour(40), Uptime: 60}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(60), Sent: 3, Success: 0, LTS: 500}),
		}
		for _, err := range recs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return []*shardCheckpoint{in.shards[0].buildCheckpoint()}
}

// TestAdoptRefusesBadCheckpoint: each way a shipped checkpoint can
// contradict the state machines is refused by AdoptPartition, which
// then leaves the partition unowned.
func TestAdoptRefusesBadCheckpoint(t *testing.T) {
	for name, corrupt := range map[string]func(ck *shardCheckpoint){
		"negative record count":  func(ck *shardCheckpoint) { ck.Counts.KRoot = -1 },
		"negative state counter": func(ck *shardCheckpoint) { ck.Probes[0].Sessions = -2 },
		"reboot lists disagree": func(ck *shardCheckpoint) {
			an := ck.Probes[0].An
			an.RebootGaps = append(an.RebootGaps, an.RebootGaps...)
		},
		"repeated probe":        func(ck *shardCheckpoint) { ck.Probes[1].ID = ck.Probes[0].ID },
		"metadata of another":   func(ck *shardCheckpoint) { ck.Probes[0].Meta.ID = 99 },
		"evidence ring too big": func(ck *shardCheckpoint) { ck.Probes[0].RecentReboots = make([]int64, recentEvidence+1) },
		"churn day past study":  func(ck *shardCheckpoint) { ck.Churn[0].Day = 1 << 20 },
	} {
		t.Run(name, func(t *testing.T) {
			ck := checkpointSeeds(t)[0]
			corrupt(ck)
			in := NewIngester(Config{TotalPartitions: 2, OwnedPartitions: []int{1}, Analysis: true})
			defer in.Close()
			if err := in.AdoptPartition(&PartitionState{Version: walMetaVersion, Partition: 0, Checkpoint: ck}); err == nil {
				t.Fatal("adopted a corrupt checkpoint")
			}
			if got := in.OwnedPartitions(); len(got) != 1 || got[0] != 1 {
				t.Errorf("after a refused adopt the ingester owns %v", got)
			}
		})
	}
}
