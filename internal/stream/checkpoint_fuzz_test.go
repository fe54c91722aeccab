package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// FuzzCheckpoint feeds arbitrary bytes to restoreCheckpoint, as recovery
// and AdoptPartition (whose checkpoint arrives over the network) do. A
// checkpoint the state machines cannot run from must be an error, never
// a panic. One that restores must re-encode to exactly its own bytes;
// the restored shard then applies one record of each kind to every
// probe and is read back through every snapshot path. The shard that
// restores it has the checkpoint's own partition and analysis mode; a
// shard of the other mode must restore it without panicking too.
func FuzzCheckpoint(f *testing.F) {
	for _, analysis := range []bool{true, false} {
		f.Add(encodeCheckpoint(f, seedShard(f, analysis)))
	}
	for _, corrupt := range checkpointCorruptions {
		f.Add(corrupt(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		it := wire.Frames(data)
		h, err := readCheckpointHead(&it, len(data))
		for _, analysis := range []bool{!h.analysis, h.analysis} {
			in := &Ingester{cfg: Config{Analysis: analysis}}
			s := in.newShard(h.partition)
			seq, _, rerr := s.restoreCheckpoint(data)
			if err != nil && rerr == nil {
				t.Fatalf("the header does not decode (%v) but the checkpoint restores", err)
			}
			if rerr != nil {
				continue
			}
			if analysis == h.analysis {
				s.lastSeq = seq
				again, err := s.appendCheckpoint(nil, s.gen)
				if err != nil {
					t.Fatalf("restored shard does not checkpoint: %v", err)
				}
				if !bytes.Equal(again, data) {
					t.Fatalf("restored checkpoint re-encodes to %d other bytes", len(again))
				}
			}
			late := simclock.StudyEnd
			for id := range s.states {
				s.apply(record{kind: kindMeta, meta: atlasdata.ProbeMeta{ID: id, Version: atlasdata.V3, ConnectedDays: 400}})
				s.apply(record{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: id, Start: late, End: late + 60, Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.9.9.9")}})
				s.apply(record{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: id, Timestamp: late, Sent: 3, Success: 0, LTS: 900}})
				s.apply(record{kind: kindUptime, uptime: atlasdata.UptimeRecord{Probe: id, Timestamp: late + 120, Uptime: 30}})
				s.apply(record{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: id, Timestamp: late + 300, Sent: 3, Success: 3, LTS: 20}})
			}
			s.view()
			s.analysisView()
			if _, err := s.appendCheckpoint(nil, s.gen); err != nil {
				t.Fatalf("shard does not checkpoint after applying records: %v", err)
			}
		}
	})
}

// seedShard returns the stopped shard of an in-memory ingester fed a
// few probes' worth of sessions, rounds (a loss run included) and
// reboots.
func seedShard(t testing.TB, analysis bool) *shard {
	t.Helper()
	in := NewIngester(Config{Shards: 1, Analysis: analysis})
	for _, err := range seedRecords(in, 1, 2, 3) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in.shards[0]
}

func seedRecords(in *Ingester, ids ...atlasdata.ProbeID) []error {
	base := simclock.StudyStart
	hour := func(h int) simclock.Time { return base.Add(simclock.Duration(h) * simclock.Hour) }
	var errs []error
	for _, id := range ids {
		errs = append(errs,
			in.Meta(atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200, Tags: []string{"home"}}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(0), End: hour(20), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(24), End: hour(50), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")}),
			in.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: hour(51), End: hour(70), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.3")}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(21), Sent: 3, Success: 0, LTS: 600}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(22), Sent: 3, Success: 3, LTS: 30}),
			in.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: hour(30), Uptime: 30 * 3600}),
			in.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: hour(40), Uptime: 60}),
			in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: hour(60), Sent: 3, Success: 0, LTS: 500}),
		)
	}
	return errs
}

func encodeCheckpoint(t testing.TB, s *shard) []byte {
	t.Helper()
	b, err := s.appendCheckpoint(nil, s.gen)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rehead re-encodes a checkpoint's header frame after edit, keeping its
// probe frames.
func rehead(t testing.TB, ck []byte, edit func(h *checkpointHead)) []byte {
	t.Helper()
	it := wire.Frames(ck)
	h, err := readCheckpointHead(&it, len(ck))
	if err != nil {
		t.Fatal(err)
	}
	edit(&h)
	return append(appendCheckpointHead(nil, &h), ck[it.Offset():]...)
}

// checkpointCorruptions encodes each way a checkpoint of partition 0
// can contradict the state machines.
var checkpointCorruptions = map[string]func(t testing.TB) []byte{
	"negative record count":  corruptState(func(s *shard) { s.counts.KRoot = -1 }),
	"negative state counter": corruptState(func(s *shard) { s.states[1].m.ConnectedSecs = -2 }),
	"reboot lists disagree": corruptState(func(s *shard) {
		m := &s.states[1].m
		m.RebootGaps = append(m.RebootGaps, m.RebootGaps...)
	}),
	"repeated probe":        corruptState(func(s *shard) { s.states[2].m.Probe = 1 }),
	"metadata of another":   corruptState(func(s *shard) { s.states[1].meta.ID = 99 }),
	"invalid metadata":      corruptState(func(s *shard) { s.states[1].meta.Version = 9 }),
	"evidence ring too big": corruptState(func(s *shard) { s.states[1].m.RecentReboots = make([]simclock.Time, core.RecentEvidence+1) }),
	"churn day past study": func(t testing.TB) []byte {
		return rehead(t, encodeCheckpoint(t, seedShard(t, true)), func(h *checkpointHead) { h.churn[0].Day = 1 << 20 })
	},
	"churn days out of order": func(t testing.TB) []byte {
		return rehead(t, encodeCheckpoint(t, seedShard(t, true)), func(h *checkpointHead) {
			h.churn = append(h.churn, h.churn[0])
		})
	},
	"another partition": func(t testing.TB) []byte {
		return rehead(t, encodeCheckpoint(t, seedShard(t, true)), func(h *checkpointHead) { h.partition = 1 })
	},
	"missing probe frame": func(t testing.TB) []byte {
		return rehead(t, encodeCheckpoint(t, seedShard(t, true)), func(h *checkpointHead) { h.probes++ })
	},
	// Values the machine cannot hold, written in place of a marker the
	// encoder can write.
	"run count past u32": func(t testing.TB) []byte {
		s := seedShard(t, true)
		s.states[1].m.RunCount[0].N = marker
		return patchFrames(t, encodeCheckpoint(t, s), binary.AppendUvarint(nil, marker), binary.AppendUvarint(nil, 1<<32))
	},
	"gap past u32": func(t testing.TB) []byte {
		s := seedShard(t, true)
		m := &s.states[1].m
		g, err := core.NewGapEvent(marker, marker+1, false)
		if err != nil {
			t.Fatal(err)
		}
		m.Gaps = []core.GapEvent{g}
		return patchFrames(t, encodeCheckpoint(t, s), binary.AppendVarint(nil, marker), binary.AppendVarint(nil, 1<<32))
	},
	"session end past u32": func(t testing.TB) []byte {
		s := seedShard(t, true)
		s.states[1].m.PrevEnd = marker
		return patchFrames(t, encodeCheckpoint(t, s), binary.AppendVarint(nil, marker), binary.AppendVarint(nil, 1<<32))
	},
	"k-root round past u32": func(t testing.TB) []byte {
		s := seedShard(t, true)
		s.states[1].m.Rounds = []uint32{marker}
		return patchFrames(t, encodeCheckpoint(t, s), binary.AppendVarint(nil, marker), binary.AppendVarint(nil, 1<<32))
	},
	"overlong varint": func(t testing.TB) []byte {
		ck := encodeCheckpoint(t, seedShard(t, true))
		it := wire.Frames(ck)
		head, _, err := it.Next()
		if err != nil || head[1] != 0 {
			t.Fatalf("header frame %x (%v), want partition 0 after the tag", head, err)
		}
		// Partition 0 in two bytes: a second reading of the same value.
		payload := append([]byte{head[0], 0x80, 0x00}, head[2:]...)
		return append(wire.AppendFrame(nil, payload), ck[it.Offset():]...)
	},
}

// marker is a value no seeded checkpoint or view holds otherwise.
const marker = 0xFEDCBA98

// patchFrames replaces the one occurrence of old in b's frame payloads
// with new and re-frames them, so a value no encoder writes reaches a
// decoder behind valid checksums.
func patchFrames(t testing.TB, b, old, new []byte) []byte {
	t.Helper()
	var out []byte
	found := 0
	for it := wire.Frames(b); ; {
		p, done, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		found += bytes.Count(p, old)
		out = wire.AppendFrame(out, bytes.Replace(p, old, new, 1))
	}
	if found != 1 {
		t.Fatalf("%x occurs %d times, want once", old, found)
	}
	return out
}

func corruptState(edit func(s *shard)) func(t testing.TB) []byte {
	return func(t testing.TB) []byte {
		s := seedShard(t, true)
		edit(s)
		return encodeCheckpoint(t, s)
	}
}

// TestAdoptRefusesBadCheckpoint: each way a shipped checkpoint can
// contradict the state machines is refused by AdoptPartition, which
// then leaves the partition unowned.
func TestAdoptRefusesBadCheckpoint(t *testing.T) {
	good := encodeCheckpoint(t, seedShard(t, true))
	for name, corrupt := range checkpointCorruptions {
		t.Run(name, func(t *testing.T) {
			ck := corrupt(t)
			in := NewIngester(Config{TotalPartitions: 2, OwnedPartitions: []int{1}, Analysis: true})
			defer in.Close()
			if err := in.AdoptPartition(&PartitionState{Version: walMetaVersion, Partition: 0, Checkpoint: ck}); err == nil {
				t.Fatal("adopted a corrupt checkpoint")
			}
			if got := in.OwnedPartitions(); len(got) != 1 || got[0] != 1 {
				t.Errorf("after a refused adopt the ingester owns %v", got)
			}
			if err := in.AdoptPartition(&PartitionState{Version: walMetaVersion, Partition: 0, Checkpoint: good}); err != nil {
				t.Errorf("adopting the uncorrupted checkpoint afterwards: %v", err)
			}
		})
	}
}

// FuzzAdoptPartition feeds arbitrary bodies to what the adopt route
// does with one — decode a JSON PartitionState, then AdoptPartition —
// on an in-memory and a durable adopter owning no partitions. Neither
// may panic or allocate more than 32 times the body plus 64 KiB, and a
// refused adopt must leave no partition owned and, on the durable
// adopter, no shard directory.
func FuzzAdoptPartition(f *testing.F) {
	for _, st := range releasedStates(f) {
		for _, version := range []int{walMetaVersion, walMetaVersion - 1} {
			st := *st
			st.Version = version
			body, err := json.Marshal(&st)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	for _, corrupt := range checkpointCorruptions {
		body, err := json.Marshal(&PartitionState{Version: walMetaVersion, Checkpoint: corrupt(f)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, durable := range []bool{false, true} {
			cfg := Config{TotalPartitions: 2, OwnedPartitions: []int{}, Analysis: true, Buffer: 1,
				Sync: wal.SyncNever, CheckpointEvery: -1}
			if durable {
				cfg.WALDir = t.TempDir()
			}
			in, _, err := Recover(cfg)
			if !durable {
				in, err = NewIngester(cfg), nil
			}
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var st PartitionState
			err = json.Unmarshal(body, &st)
			if err == nil {
				err = in.AdoptPartition(&st)
			}
			runtime.ReadMemStats(&after)
			if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(32*len(body)+64<<10); alloc > budget {
				t.Errorf("durable=%v: adopting a %d-byte body allocated %d bytes, budget %d", durable, len(body), alloc, budget)
			}
			if err != nil {
				if owned := in.OwnedPartitions(); len(owned) != 0 {
					t.Errorf("durable=%v: refused adopt (%v) left partitions %v", durable, err, owned)
				}
				if durable {
					if dirs, derr := DiscoverPartitions(cfg.WALDir); derr != nil || len(dirs) != 0 {
						t.Errorf("durable=%v: refused adopt (%v) left shard directories %v (%v)", durable, err, dirs, derr)
					}
				}
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// releasedStates releases partition 0 from an in-memory ingester and
// from a durable one whose state is a checkpoint plus a WAL tail.
func releasedStates(t testing.TB) []*PartitionState {
	t.Helper()
	var out []*PartitionState
	for _, durable := range []bool{false, true} {
		cfg := Config{TotalPartitions: 2, OwnedPartitions: []int{0, 1}, Analysis: true}
		if durable {
			cfg.WALDir, cfg.Sync, cfg.CheckpointEvery = t.TempDir(), wal.SyncNever, 8
		}
		in := NewIngester(cfg)
		var ids []atlasdata.ProbeID
		for id := atlasdata.ProbeID(1); len(ids) < 3; id++ {
			if PartitionOf(id, 2) == 0 {
				ids = append(ids, id)
			}
		}
		for _, err := range seedRecords(in, ids...) {
			if err != nil {
				t.Fatal(err)
			}
		}
		st, err := in.ReleasePartition(0)
		if err != nil {
			t.Fatal(err)
		}
		if durable && (len(st.Checkpoint) == 0 || len(st.Tail) == 0) {
			t.Fatalf("durable release shipped a %d-byte checkpoint and %d tail records, want both", len(st.Checkpoint), len(st.Tail))
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// TestAnalysisViewRefusesGapPastU32: a peer's gaps decode through
// core.NewGapEvent, so a view carrying a gap time the machine cannot
// hold is refused, as a checkpoint carrying one is.
func TestAnalysisViewRefusesGapPastU32(t *testing.T) {
	g, err := core.NewGapEvent(marker, marker+60, true)
	if err != nil {
		t.Fatal(err)
	}
	view := AppendAnalysisPeerView(nil, &AnalysisPeerView{TotalPartitions: 1, Partitions: []int{0},
		Events: []core.ProbeEvents{{Probe: 1, Gaps: []core.GapEvent{g}}}})
	v, err := DecodeAnalysisPeerView(view)
	if err != nil || len(v.Events) != 1 || len(v.Events[0].Gaps) != 1 || v.Events[0].Gaps[0] != g {
		t.Fatalf("view decodes as %+v, %v", v, err)
	}
	bad := patchFrames(t, view, binary.AppendVarint(nil, marker), binary.AppendVarint(nil, 1<<32))
	if _, err := DecodeAnalysisPeerView(bad); err == nil || !strings.Contains(err.Error(), "outside 0-4294967295") {
		t.Errorf("view with a gap at 2^32: %v", err)
	}
}
