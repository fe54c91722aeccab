package stream

import (
	"bytes"
	"math"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
)

// FuzzRecordPayload holds decodeRecord, the one payload decoder behind
// IngestWire, WAL replay, partition adoption and dead-letter replay, to
// two properties on arbitrary bytes: it never panics, and whatever it
// accepts appendRecord re-encodes byte for byte — a payload has exactly
// one valid reading, so the WAL can store the producer's bytes.
func FuzzRecordPayload(f *testing.F) {
	ts := simclock.StudyStart
	seeds := [][]byte{nil, {0x99}, {byte(kindUptime), 1, 0}}
	for _, rec := range []record{
		{kind: kindMeta, meta: atlasdata.ProbeMeta{ID: 7, Country: "DE", Version: atlasdata.V3, Tags: []string{"core", ""}, ConnectedDays: 12.5}},
		{kind: kindMeta, meta: atlasdata.ProbeMeta{ID: 8, ConnectedDays: math.NaN()}},
		{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: 7, Start: ts, End: ts + 60, Family: atlasdata.V4, Addr: 0x0a000001}},
		{kind: kindConn, conn: atlasdata.ConnLogEntry{Probe: 7, Start: ts, End: ts + 60, Family: atlasdata.V6, V6Addr: "2001:db8::1 x"}},
		{kind: kindKRoot, kroot: atlasdata.KRootRound{Probe: 7, Timestamp: ts, Sent: 3, Success: 2, LTS: 40}},
		{kind: kindUptime, uptime: atlasdata.UptimeRecord{Probe: 7, Timestamp: ts, Uptime: -1}},
	} {
		payload, err := appendRecord(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, payload, payload[:len(payload)-1], append(payload, 0))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec record
		if decodeRecord(payload, &rec) != nil {
			return
		}
		back, err := appendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("decoded %x but cannot re-encode it: %v", payload, err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("re-encoding changed the payload\n in: %x\nout: %x", payload, back)
		}
	})
}
