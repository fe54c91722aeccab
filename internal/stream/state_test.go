package stream

import (
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// TestNewProbeAllocs pins what a probe's first record costs the shard:
// one allocation, the probe state with its machine inside. A first IPv4
// entry also starts the machine's sorted run-count slice (one
// allocation), and on an analysis shard a first k-root round starts its
// round deque. The states map is sized up front, so its growth is not
// counted.
func TestNewProbeAllocs(t *testing.T) {
	at := simclock.StudyStart
	cases := []struct {
		kind                   string
		allocs, analysisAllocs float64
		rec                    func(id atlasdata.ProbeID) record
	}{
		{"meta", 1, 1, func(id atlasdata.ProbeID) record {
			return record{kind: kindMeta, meta: atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 90}}
		}},
		{"uptime", 1, 1, func(id atlasdata.ProbeID) record {
			return record{kind: kindUptime, uptime: atlasdata.UptimeRecord{Probe: id, Timestamp: at, Uptime: 60}}
		}},
		{"connlog v6", 1, 1, func(id atlasdata.ProbeID) record {
			return record{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: id, Start: at, End: at + 60, Family: atlasdata.V6}}
		}},
		{"connlog v4", 2, 2, func(id atlasdata.ProbeID) record {
			return record{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: id, Start: at, End: at + 60, Addr: ip4.MustParseAddr("10.0.0.1")}}
		}},
		{"kroot", 1, 2, func(id atlasdata.ProbeID) record {
			return record{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: id, Timestamp: at, Sent: 3, Success: 3, LTS: 30}}
		}},
	}
	for _, analysis := range []bool{false, true} {
		for _, c := range cases {
			s := (&Ingester{cfg: Config{Analysis: analysis}}).newShard(0)
			s.states = make(map[atlasdata.ProbeID]*probeState, 2048)
			id := atlasdata.ProbeID(0)
			got := testing.AllocsPerRun(1000, func() {
				id++
				s.apply(c.rec(id))
			})
			want := c.allocs
			if analysis {
				want = c.analysisAllocs
			}
			if got != want {
				t.Errorf("analysis=%v: a fresh probe's first %s record allocates %v times, want %v", analysis, c.kind, got, want)
			}
		}
	}
}
