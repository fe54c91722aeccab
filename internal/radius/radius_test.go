package radius

import (
	"testing"
	"testing/quick"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{Code: CodeAccountingRequest, Identifier: 42}
	p.Authenticator = [16]byte{1, 2, 3}
	p.AddU32Attr(AttrAcctStatusType, AcctStart)
	p.AddAttr(AttrUserName, []byte("customer-206"))
	p.AddAddrAttr(AttrFramedIPAddress, ip4.MustParseAddr("91.55.1.2"))

	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != p.Code || got.Identifier != 42 || got.Authenticator != p.Authenticator {
		t.Errorf("header = %+v", got)
	}
	if st, ok := got.U32Attr(AttrAcctStatusType); !ok || st != AcctStart {
		t.Errorf("status = %v %v", st, ok)
	}
	if user, ok := got.Attr(AttrUserName); !ok || string(user) != "customer-206" {
		t.Errorf("user = %q %v", user, ok)
	}
	if addr, ok := got.AddrAttr(AttrFramedIPAddress); !ok || addr.String() != "91.55.1.2" {
		t.Errorf("addr = %v %v", addr, ok)
	}
	if _, ok := got.Attr(AttrAcctSessionTime); ok {
		t.Error("absent attribute reported present")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10), // short
		{4, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // length < header
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Bad attribute length.
	p := &Packet{Code: CodeAccountingRequest}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, AttrUserName, 1) // length 1 < minimum 2
	b[2] = byte(len(b) >> 8)
	b[3] = byte(len(b))
	if _, err := Unmarshal(b); err == nil {
		t.Error("attribute length 1 should fail")
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAccountantStartStop(t *testing.T) {
	a := NewAccountant()
	start := NewAccountingRequest(1, AcctStart, "u1", "s1", ip4.MustParseAddr("10.0.0.1"), 1000, 0)
	if err := a.roundTrip(start); err != nil {
		t.Fatal(err)
	}
	if a.Open() != 1 {
		t.Fatalf("open = %d", a.Open())
	}
	stop := NewAccountingRequest(2, AcctStop, "u1", "s1", ip4.MustParseAddr("10.0.0.1"), 87400, 86400)
	if err := a.roundTrip(stop); err != nil {
		t.Fatal(err)
	}
	if a.Open() != 0 {
		t.Error("session still open after stop")
	}
	done := a.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d", len(done))
	}
	s := done[0]
	if s.User != "u1" || s.Addr.String() != "10.0.0.1" || s.Duration != simclock.Day {
		t.Errorf("session = %+v", s)
	}
}

func TestAccountantErrors(t *testing.T) {
	a := NewAccountant()
	// Stop for unknown session.
	stop := NewAccountingRequest(1, AcctStop, "u", "nope", 1, 100, 50)
	if err := a.roundTrip(stop); err == nil {
		t.Error("stop for unknown session should fail")
	}
	// Non-accounting code.
	p := &Packet{Code: CodeAccessRequest}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Handle(b); err == nil {
		t.Error("access request should be rejected")
	}
	// Missing status type.
	p2 := &Packet{Code: CodeAccountingRequest}
	p2.AddAttr(AttrAcctSessionID, []byte("x"))
	if b, err = p2.Marshal(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Handle(b); err == nil {
		t.Error("request without status should be rejected")
	}
}

func TestAccountConnLog(t *testing.T) {
	mk := func(start, end simclock.Time, addr string) atlasdata.ConnLogEntry {
		return atlasdata.ConnLogEntry{
			Probe: 1, Start: start, End: end,
			Family: atlasdata.V4, Addr: ip4.MustParseAddr(addr),
		}
	}
	entries := []atlasdata.ConnLogEntry{
		mk(0, 1000, "10.0.0.1"),
		mk(1100, 2000, "10.0.0.1"), // same address: one session
		mk(2100, 5000, "10.0.0.2"),
	}
	log, err := atlasdata.ConnLogSeries(1, entries, atlasdata.NewV6Interner(new(atlasdata.V6Table)))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccountant()
	if err := AccountConnLog(a, "probe-1", log); err != nil {
		t.Fatal(err)
	}
	done := a.Completed()
	if len(done) != 2 {
		t.Fatalf("sessions = %d, want 2", len(done))
	}
	if done[0].Duration != 2000 || done[1].Duration != 2900 {
		t.Errorf("durations = %v, %v", done[0].Duration, done[1].Duration)
	}
	byUser := SessionsByUser(done)
	if len(byUser["probe-1"]) != 2 {
		t.Errorf("per-user grouping = %v", byUser)
	}
}

func TestSessionDurationTTF(t *testing.T) {
	sessions := []Session{
		{Duration: 24 * simclock.Hour},
		{Duration: 24*simclock.Hour - 20*simclock.Minute},
		{Duration: 2 * simclock.Hour},
	}
	ttf := SessionDurationTTF(sessions)
	if got := ttf.MassAt(24); got < 0.9 {
		t.Errorf("mass at 24h = %v, want > 0.9 (time-weighted)", got)
	}
}

func BenchmarkAccountingRoundTrip(b *testing.B) {
	a := NewAccountant()
	addr := ip4.MustParseAddr("10.0.0.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sid := "s"
		start := NewAccountingRequest(1, AcctStart, "u", sid, addr, 1000, 0)
		if err := a.roundTrip(start); err != nil {
			b.Fatal(err)
		}
		stop := NewAccountingRequest(2, AcctStop, "u", sid, addr, 2000, 1000)
		if err := a.roundTrip(stop); err != nil {
			b.Fatal(err)
		}
	}
}
