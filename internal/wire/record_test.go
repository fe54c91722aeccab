package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func TestMetaRoundTrip(t *testing.T) {
	cases := []atlasdata.ProbeMeta{
		{ID: 1, Country: "DE", Version: 3, Tags: []string{"dsl", "home"}, ConnectedDays: 123.5},
		{ID: 4294967295, Country: "", Version: 1, ConnectedDays: 0},
		{ID: 77, Country: "US", Version: 2, Tags: []string{""}, ConnectedDays: math.Inf(1)},
	}
	for _, want := range cases {
		payload, err := AppendMeta(nil, want)
		if err != nil {
			t.Fatalf("AppendMeta(%+v): %v", want, err)
		}
		if k, err := PayloadKind(payload); err != nil || k != KindMeta {
			t.Fatalf("PayloadKind = %v, %v", k, err)
		}
		got, err := DecodeMeta(payload)
		if err != nil {
			t.Fatalf("DecodeMeta: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestConnLogRoundTrip(t *testing.T) {
	cases := []atlasdata.ConnLogEntry{
		{Probe: 10, Start: 100, End: 200, Family: atlasdata.V4, Addr: ip4.Addr(0x0A000001)},
		{Probe: 11, Start: 0, End: math.MaxUint32, Family: atlasdata.V4, Addr: 0},
		{Probe: 12, Start: 300, End: 400, Family: atlasdata.V6, V6Addr: "2001:db8::1"},
	}
	for _, want := range cases {
		payload, err := AppendConnLog(nil, want)
		if err != nil {
			t.Fatalf("AppendConnLog(%+v): %v", want, err)
		}
		got, err := DecodeConnLog(payload)
		if err != nil {
			t.Fatalf("DecodeConnLog: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestKRootRoundTrip(t *testing.T) {
	for _, want := range []atlasdata.KRootRound{
		{Probe: 55, Timestamp: 1420070400, Sent: 10, Success: 9, LTS: -1},
		{Probe: 56, Timestamp: math.MaxUint32, Sent: math.MaxUint16, Success: math.MaxUint16, LTS: math.MaxInt32},
		{Probe: 57, Timestamp: 1, LTS: math.MinInt32},
	} {
		payload, err := AppendKRoot(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeKRoot(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestUptimeRoundTrip(t *testing.T) {
	want := atlasdata.UptimeRecord{Probe: 55, Timestamp: 1420070400, Uptime: 86400}
	payload, err := AppendUptime(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUptime(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	// A k-root timestamp DecodeKRoot refuses does not encode.
	for _, ts := range []int64{-1, math.MaxUint32 + 1} {
		k := atlasdata.KRootRound{Probe: 1, Timestamp: simclock.Time(ts), Sent: 3, Success: 3, LTS: 60}
		if p, err := AppendKRoot(nil, k); !errors.Is(err, ErrRecord) {
			t.Errorf("AppendKRoot at %d = %x, %v; want ErrRecord", ts, p, err)
		}
	}
	// Nor do connection times DecodeConnLog refuses.
	for _, ts := range []int64{-1, math.MaxUint32 + 1} {
		for _, e := range []atlasdata.ConnLogEntry{
			{Probe: 1, Start: simclock.Time(ts), End: 2, Addr: 9},
			{Probe: 1, Start: 2, End: simclock.Time(ts), Addr: 9},
		} {
			if p, err := AppendConnLog(nil, e); !errors.Is(err, ErrRecord) {
				t.Errorf("AppendConnLog %d-%d = %x, %v; want ErrRecord", e.Start, e.End, p, err)
			}
		}
	}
	if _, err := AppendMeta(nil, atlasdata.ProbeMeta{ID: -1}); !errors.Is(err, ErrRecord) {
		t.Fatalf("negative probe ID: err = %v", err)
	}
	if _, err := AppendConnLog(nil, atlasdata.ConnLogEntry{Probe: math.MaxUint32 + 1}); !errors.Is(err, ErrRecord) {
		t.Fatalf("oversized probe ID: err = %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	conn, err := AppendConnLog(nil, atlasdata.ConnLogEntry{Probe: 1, Start: 1, End: 2, Family: atlasdata.V4, Addr: 9})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := AppendMeta(nil, atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: 1})
	if err != nil {
		t.Fatal(err)
	}

	badFamily := append([]byte(nil), conn...)
	badFamily[1+4+8+8] = 9 // family byte

	// The record's LTS is an int32; the wire carries an i64.
	kroot, err := AppendKRoot(nil, atlasdata.KRootRound{Probe: 1, Timestamp: 3, Sent: 3, Success: 3, LTS: 60})
	if err != nil {
		t.Fatal(err)
	}
	wideLTS := func(lts int64) []byte {
		p := append([]byte(nil), kroot...)
		binary.LittleEndian.PutUint64(p[len(p)-8:], uint64(lts))
		return p
	}
	// A Dataset stores a round's timestamp in 32 bits; the wire carries
	// an i64.
	wideTime := func(ts int64) []byte {
		p := append([]byte(nil), kroot...)
		binary.LittleEndian.PutUint64(p[1+4:], uint64(ts))
		return p
	}
	for _, ts := range []int64{0, math.MaxUint32} {
		k, err := DecodeKRoot(wideTime(ts))
		if err != nil || int64(k.Timestamp) != ts {
			t.Errorf("kroot at %d decoded as %+v, %v", ts, k, err)
		}
		if p, err := AppendKRoot(nil, k); err != nil || !bytes.Equal(p, wideTime(ts)) {
			t.Errorf("kroot at %d re-encoded as %x, %v", ts, p, err)
		}
	}

	// A detector keeps a session's times in 32 bits; the wire carries
	// i64s.
	connTimes := func(start, end int64) []byte {
		p := append([]byte(nil), conn...)
		binary.LittleEndian.PutUint64(p[1+4:], uint64(start))
		binary.LittleEndian.PutUint64(p[1+4+8:], uint64(end))
		return p
	}
	for _, ts := range []int64{0, math.MaxUint32} {
		e, err := DecodeConnLog(connTimes(ts, ts))
		if err != nil || int64(e.Start) != ts || int64(e.End) != ts {
			t.Errorf("conn at %d decoded as %+v, %v", ts, e, err)
		}
		if p, err := AppendConnLog(nil, e); err != nil || !bytes.Equal(p, connTimes(ts, ts)) {
			t.Errorf("conn at %d re-encoded as %x, %v", ts, p, err)
		}
	}

	cases := []struct {
		name    string
		payload []byte
	}{
		{"conn start -1", connTimes(-1, 2)},
		{"conn end 2^32", connTimes(1, math.MaxUint32+1)},
		{"empty", nil},
		{"unknown kind", []byte{0x7F, 0, 0}},
		{"truncated conn", conn[:len(conn)-2]},
		{"trailing bytes", append(append([]byte(nil), conn...), 0)},
		{"unknown family", badFamily},
		{"truncated meta", meta[:len(meta)-1]},
		{"kroot lts 2^31", wideLTS(math.MaxInt32 + 1)},
		{"kroot lts -2^31-1", wideLTS(math.MinInt32 - 1)},
		{"kroot timestamp -1", wideTime(-1)},
		{"kroot timestamp 2^32", wideTime(math.MaxUint32 + 1)},
		{"truncated kroot", kroot[:len(kroot)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var decErr error
			if len(tc.payload) > 0 {
				switch Kind(tc.payload[0]) {
				case KindMeta:
					_, decErr = DecodeMeta(tc.payload)
				case KindConn:
					_, decErr = DecodeConnLog(tc.payload)
				case KindKRoot:
					_, decErr = DecodeKRoot(tc.payload)
				default:
					_, decErr = PayloadKind(tc.payload)
				}
			} else {
				_, decErr = PayloadKind(tc.payload)
			}
			if !errors.Is(decErr, ErrRecord) {
				t.Fatalf("err = %v, want ErrRecord", decErr)
			}
		})
	}
}

// TestDecodeZeroAlloc pins the hot-path contract: v4 sessions, k-root
// rounds, and uptime reports decode without touching the heap.
func TestDecodeZeroAlloc(t *testing.T) {
	conn, err := AppendConnLog(nil, atlasdata.ConnLogEntry{Probe: 1, Start: 1, End: 2, Family: atlasdata.V4, Addr: 9})
	if err != nil {
		t.Fatal(err)
	}
	kroot, err := AppendKRoot(nil, atlasdata.KRootRound{Probe: 1, Timestamp: 3, Sent: 10, Success: 9, LTS: 1})
	if err != nil {
		t.Fatal(err)
	}
	uptime, err := AppendUptime(nil, atlasdata.UptimeRecord{Probe: 1, Timestamp: 3, Uptime: 4})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeConnLog(conn); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeKRoot(kroot); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeUptime(uptime); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-path decode allocated %.1f times per run, want 0", allocs)
	}
}

func TestBatchWriterRoundTrip(t *testing.T) {
	var w BatchWriter
	if err := w.Meta(atlasdata.ProbeMeta{ID: 1, Country: "DE", Version: 2, ConnectedDays: 9.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.ConnLog(atlasdata.ConnLogEntry{Probe: 1, Start: 10, End: 20, Family: atlasdata.V4, Addr: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.KRoot(atlasdata.KRootRound{Probe: 1, Timestamp: 15, Sent: 10, Success: 10, LTS: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Uptime(atlasdata.UptimeRecord{Probe: 1, Timestamp: 15, Uptime: 5}); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 4 {
		t.Fatalf("Records() = %d, want 4", w.Records())
	}
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len() = %d, Bytes() has %d", w.Len(), len(w.Bytes()))
	}

	wantKinds := []Kind{KindMeta, KindConn, KindKRoot, KindUptime}
	it := Frames(w.Bytes())
	for i, want := range wantKinds {
		payload, done, err := it.Next()
		if err != nil || done {
			t.Fatalf("frame %d: done=%v err=%v", i, done, err)
		}
		k, err := PayloadKind(payload)
		if err != nil || k != want {
			t.Fatalf("frame %d: kind %v err=%v, want %v", i, k, err, want)
		}
	}
	if _, done, _ := it.Next(); !done {
		t.Fatal("expected clean end")
	}

	w.Reset()
	if w.Len() != 0 || w.Records() != 0 {
		t.Fatalf("after Reset: Len=%d Records=%d", w.Len(), w.Records())
	}
}
