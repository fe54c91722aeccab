package radius

import (
	"fmt"
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
)

// Session is one completed accounting session: a user held an address
// from Start for Duration. This is exactly the record Maier et al.
// analysed (the paper's §7: "used access to the Radius server ... to
// identify why DSL sessions terminated").
type Session struct {
	User     string
	ID       string
	Addr     ip4.Addr
	Start    simclock.Time
	Duration simclock.Duration
}

// Accountant ingests accounting packets and keeps the session ledger.
type Accountant struct {
	open      map[string]*Session // by Acct-Session-Id
	completed []Session
	nextIdent byte
}

// NewAccountant returns an empty ledger.
func NewAccountant() *Accountant {
	return &Accountant{open: make(map[string]*Session)}
}

// Open returns the number of in-progress sessions.
func (a *Accountant) Open() int { return len(a.open) }

// Completed returns the finished sessions in completion order.
func (a *Accountant) Completed() []Session {
	out := make([]Session, len(a.completed))
	copy(out, a.completed)
	return out
}

// Handle processes one marshalled Accounting-Request and returns the
// marshalled Accounting-Response.
func (a *Accountant) Handle(b []byte) ([]byte, error) {
	p, err := Unmarshal(b)
	if err != nil {
		return nil, err
	}
	if p.Code != CodeAccountingRequest {
		return nil, fmt.Errorf("radius: accountant got code %d", p.Code)
	}
	status, ok := p.U32Attr(AttrAcctStatusType)
	if !ok {
		return nil, fmt.Errorf("radius: request without Acct-Status-Type")
	}
	sid, ok := p.Attr(AttrAcctSessionID)
	if !ok {
		return nil, fmt.Errorf("radius: request without Acct-Session-Id")
	}
	switch status {
	case AcctStart:
		user, _ := p.Attr(AttrUserName)
		addr, _ := p.AddrAttr(AttrFramedIPAddress)
		ts, _ := p.U32Attr(AttrEventTimestamp)
		a.open[string(sid)] = &Session{
			User: string(user), ID: string(sid), Addr: addr,
			Start: simclock.Time(ts),
		}
	case AcctStop:
		s, live := a.open[string(sid)]
		if !live {
			return nil, fmt.Errorf("radius: stop for unknown session %q", sid)
		}
		secs, ok := p.U32Attr(AttrAcctSessionTime)
		if !ok {
			return nil, fmt.Errorf("radius: stop without Acct-Session-Time")
		}
		s.Duration = simclock.Duration(secs)
		a.completed = append(a.completed, *s)
		delete(a.open, string(sid))
	case AcctInterimUpdate:
		// Ledger state is authoritative; interim updates are a no-op.
	default:
		return nil, fmt.Errorf("radius: unsupported status %d", status)
	}
	resp := &Packet{Code: CodeAccountingResponse, Identifier: p.Identifier}
	return resp.Marshal()
}

// AccountConnLog replays one probe's IPv4 connection log, as a Dataset
// stores it, into the accountant as the ISP's Radius would have seen it:
// one session per maximal run of connections sharing an address, Start
// at the run's first connection and Stop at its last. This is the bridge
// that lets the Maier-style ISP-side methodology run against the same
// world the Atlas-side pipeline measures.
func AccountConnLog(a *Accountant, user string, log []atlasdata.ConnLogSample) error {
	i := 0
	seq := 0
	for i < len(log) {
		if !log[i].IsV4() {
			i++
			continue
		}
		j := i
		for j+1 < len(log) && log[j+1].IsV4() && log[j+1].Addr == log[i].Addr {
			j++
		}
		start, end, addr := log[i].StartTime(), log[j].EndTime(), log[i].V4Addr()
		seq++
		sid := fmt.Sprintf("%s-%d", user, seq)

		startReq := NewAccountingRequest(a.ident(), AcctStart, user, sid, addr, start, 0)
		if err := a.roundTrip(startReq); err != nil {
			return err
		}
		stopReq := NewAccountingRequest(a.ident(), AcctStop, user, sid, addr, end, uint32(end.Sub(start)))
		if err := a.roundTrip(stopReq); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

func (a *Accountant) ident() byte {
	a.nextIdent++
	return a.nextIdent
}

// roundTrip marshals, handles and validates the response, exercising
// the codec end to end for every record.
func (a *Accountant) roundTrip(req *Packet) error {
	b, err := req.Marshal()
	if err != nil {
		return err
	}
	respBytes, err := a.Handle(b)
	if err != nil {
		return err
	}
	resp, err := Unmarshal(respBytes)
	if err != nil {
		return err
	}
	if resp.Code != CodeAccountingResponse || resp.Identifier != req.Identifier {
		return fmt.Errorf("radius: bad accounting response")
	}
	return nil
}

// SessionDurationTTF computes the total-time-fraction distribution of
// completed session durations, quantised to whole hours — the Maier
// methodology's per-ISP session-length distribution, directly
// comparable with the Atlas-side analysis's address-duration TTF.
func SessionDurationTTF(sessions []Session) *stats.Weighted {
	var w stats.Weighted
	for _, s := range sessions {
		hours := s.Duration.Hours()
		if hours <= 0 {
			continue
		}
		q := float64(int(hours + 0.5))
		if q < 1 {
			q = 1
		}
		w.Add(q, hours)
	}
	return &w
}

// SessionsByUser groups completed sessions per user.
func SessionsByUser(sessions []Session) map[string][]Session {
	out := make(map[string][]Session)
	for _, s := range sessions {
		out[s.User] = append(out[s.User], s)
	}
	for u := range out {
		ss := out[u]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	return out
}
