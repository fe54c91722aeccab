package sim

import (
	"fmt"
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/dhcp"
	"dynaddr/internal/ip4"
	"dynaddr/internal/isp"
	"dynaddr/internal/outage"
	"dynaddr/internal/ppp"
	"dynaddr/internal/rng"
	"dynaddr/internal/simclock"
)

// lineBackend abstracts how the CPE's line gets and keeps its address.
type lineBackend interface {
	// Start assigns the initial address at t.
	Start(t simclock.Time) ip4.Addr
	// Current returns the address currently assigned to the CPE.
	Current() ip4.Addr
	// Resume handles connectivity returning at to after an interruption
	// that began at from, and reports whether the address changed.
	Resume(from, to simclock.Time) (ip4.Addr, bool)
	// ForcedAt returns the next ISP-forced disconnect strictly after
	// `after`, if the line has one. Each call may consume randomness;
	// the walker calls it once per session establishment.
	ForcedAt(after simclock.Time) (simclock.Time, bool)
	// ForcedRenumber executes the forced reassignment, effective at t.
	ForcedRenumber(t simclock.Time) (ip4.Addr, bool)
	// AdminRenumber executes an administrative reassignment: the ISP
	// discards the binding regardless of assignment technology.
	AdminRenumber(t simclock.Time) (ip4.Addr, bool)
}

// --- static line ---

type staticLine struct {
	pool *isp.AddressPool
	addr ip4.Addr
}

func (l *staticLine) Start(t simclock.Time) ip4.Addr {
	if !l.addr.IsValid() {
		l.addr = l.pool.Acquire(0)
	}
	return l.addr
}
func (l *staticLine) Current() ip4.Addr { return l.addr }
func (l *staticLine) Resume(from, to simclock.Time) (ip4.Addr, bool) {
	return l.addr, false
}
func (l *staticLine) ForcedAt(simclock.Time) (simclock.Time, bool) { return 0, false }
func (l *staticLine) ForcedRenumber(t simclock.Time) (ip4.Addr, bool) {
	return l.addr, false
}
func (l *staticLine) AdminRenumber(t simclock.Time) (ip4.Addr, bool) {
	old := l.addr
	if old.IsValid() {
		l.pool.Release(old)
	}
	l.addr = l.pool.Acquire(old)
	return l.addr, old.IsValid() && l.addr != old
}

// --- DHCP line ---

type dhcpLine struct {
	sess *dhcp.Session
}

func (l *dhcpLine) Start(t simclock.Time) ip4.Addr { return l.sess.Connect(t) }
func (l *dhcpLine) Current() ip4.Addr              { return l.sess.Addr() }
func (l *dhcpLine) Resume(from, to simclock.Time) (ip4.Addr, bool) {
	l.sess.Disconnect(from)
	return l.sess.Reconnect(to)
}
func (l *dhcpLine) ForcedAt(simclock.Time) (simclock.Time, bool) { return 0, false }
func (l *dhcpLine) ForcedRenumber(t simclock.Time) (ip4.Addr, bool) {
	return l.sess.Addr(), false
}
func (l *dhcpLine) AdminRenumber(t simclock.Time) (ip4.Addr, bool) {
	return l.sess.ForceRenumber(t)
}

// --- PPP line ---

type pppLine struct {
	sess   *ppp.Session
	rnd    *rng.RNG
	period simclock.Duration
	// Sync-anchored lines reset at anchorEpoch + k*period (the CPE's
	// configured nightly reconnect); free-running lines reset period
	// after the last assignment.
	sync        bool
	anchorEpoch simclock.Time
	skipProb    float64
	jitterProb  float64
	renumber    bool
	lastAssign  simclock.Time
}

func (l *pppLine) Start(t simclock.Time) ip4.Addr {
	addr, _ := l.sess.Connect(t)
	l.lastAssign = t
	return addr
}

func (l *pppLine) Current() ip4.Addr { return l.sess.Addr() }

func (l *pppLine) Resume(from, to simclock.Time) (ip4.Addr, bool) {
	if !l.renumber {
		// Mixed-technology customer: the line keeps its address across
		// interruptions (paper Table 6's sub-0.8 probes).
		return l.sess.Addr(), false
	}
	l.sess.Disconnect(from)
	addr, changed := l.sess.Connect(to)
	l.lastAssign = to
	return addr, changed
}

func (l *pppLine) ForcedAt(after simclock.Time) (simclock.Time, bool) {
	if l.period <= 0 {
		return 0, false
	}
	var t simclock.Time
	if l.sync {
		// Next anchor instant at least an hour away, so a reconnect just
		// before the anchor does not immediately re-reset.
		base := after.Add(simclock.Hour)
		delta := base.Sub(l.anchorEpoch)
		k := int64(delta / l.period)
		if delta%l.period != 0 || delta < 0 {
			k++
		}
		if delta < 0 {
			k = 0
		}
		t = l.anchorEpoch.Add(simclock.Duration(k) * l.period)
	} else {
		t = l.lastAssign.Add(l.period)
		for !t.After(after) {
			t = t.Add(l.period)
		}
	}
	// Skipped resets leave the session running a whole extra period —
	// the paper's harmonic durations.
	for l.rnd.Bool(l.skipProb) {
		t = t.Add(l.period)
	}
	// Jitter drifts the reset off the harmonic grid entirely.
	if l.jitterProb > 0 && l.rnd.Bool(l.jitterProb) {
		half := int64(l.period / 2)
		t = t.Add(simclock.Duration(l.rnd.Int63n(2*half+1) - half))
	}
	if !t.After(after) {
		t = after.Add(l.period)
	}
	return t, true
}

func (l *pppLine) ForcedRenumber(t simclock.Time) (ip4.Addr, bool) {
	l.sess.Disconnect(t)
	addr, changed := l.sess.Connect(t)
	l.lastAssign = t
	return addr, changed
}

func (l *pppLine) AdminRenumber(t simclock.Time) (ip4.Addr, bool) {
	return l.ForcedRenumber(t)
}

// newBackend builds the line backend for a profile, behavioural or
// wire-level per the configuration.
func (w *walker) newBackend(p isp.Profile, pool *isp.AddressPool, rnd *rng.RNG) (lineBackend, error) {
	if w.cfg.WireBackends {
		return w.newWireBackend(p, pool, rnd)
	}
	switch p.Kind {
	case isp.Static:
		return &staticLine{pool: pool}, nil
	case isp.DHCP:
		sess, err := dhcp.NewSession(dhcp.Config{
			LeaseDuration: p.Lease,
			ReclaimMean:   p.ReclaimMean,
		}, pool, rnd.Split("dhcp"))
		if err != nil {
			return nil, err
		}
		return &dhcpLine{sess: sess}, nil
	case isp.PPP:
		sess, err := ppp.NewSession(ppp.Config{SameAddrProb: p.SameAddrProb}, pool, rnd.Split("ppp"))
		if err != nil {
			return nil, err
		}
		return &pppLine{
			sess:        sess,
			rnd:         rnd.Split("forced"),
			period:      w.spec.cohort.Period,
			sync:        w.spec.syncAnchored,
			anchorEpoch: simclock.StudyStart.Add(w.spec.anchorOffset),
			skipProb:    p.SkipProb,
			jitterProb:  p.JitterProb,
			renumber:    w.spec.renumberOnOutage,
		}, nil
	default:
		return nil, fmt.Errorf("sim: unknown assignment kind %v", p.Kind)
	}
}

// breakKind classifies connection breaks inside the walker.
type breakKind int

const (
	bkOutage breakKind = iota
	bkForced
	bkFirmware
	bkSpontaneous
	bkSwitch
	bkAdmin
	bkV6Rotate
	bkDepart
)

// walker simulates one probe's year and emits its records.
type walker struct {
	cfg      *Config
	spec     probeSpec
	pool     *isp.AddressPool
	rnd      *rng.RNG
	firmware []simclock.Time

	conns  []atlasdata.ConnLogSample // an IPv6 session's Addr indexes lits
	lits   []string                  // the IPv6 sessions' literals, in emission order
	v6     *atlasdata.V6Interner     // the dataset's
	rounds []atlasdata.KRootSample   // the probe's, so stored without its ID
	ups    []atlasdata.UptimeSample  // the probe's, so stored without its ID

	lastBoot      simclock.Time
	connectedSecs int64
	// noEmit intervals suppress heartbeat rounds (gaps, outages,
	// reboots) so background rounds never contradict event emission.
	noEmit []timeSpan

	truth ProbeTruth
}

type timeSpan struct{ from, to simclock.Time }

// sessionFamily decides how one controller session is addressed.
type sessionFamily int

const (
	famV4 sessionFamily = iota
	famV6
	famFixedUplink
)

func (w *walker) pickFamily() sessionFamily {
	switch w.spec.special {
	case IPv6Only:
		return famV6
	case DualStack:
		if w.rnd.Bool(0.5) {
			return famV6
		}
		return famV4
	case Multihomed:
		if w.rnd.Bool(0.5) {
			return famFixedUplink
		}
		return famV4
	default:
		return famV4
	}
}

// v6Addr returns the probe's IPv6 address as of at. Hosts with RFC 4941
// privacy extensions rotate the interface identifier daily; others keep
// a serial that advances only on rare CPE-level events.
func (w *walker) v6Addr(at simclock.Time) string {
	serial := w.spec.v6Serial + 1
	if w.spec.v6Rotate {
		serial = int(at.Sub(simclock.StudyStart)/simclock.Day) + 1
	}
	return fmt.Sprintf("2001:db8:%x::%d", int(w.spec.id), serial)
}

func (w *walker) emitSession(start, end simclock.Time, fam sessionFamily, v4 ip4.Addr) {
	if !start.Before(end) {
		return
	}
	e := atlasdata.ConnLogSample{Start: uint32(start), End: uint32(end)}
	switch fam {
	case famV6:
		e.Family = atlasdata.V6
		e.Addr = uint32(len(w.lits))
		w.lits = append(w.lits, w.v6Addr(start))
	case famFixedUplink:
		e.Family = atlasdata.V4
		e.Addr = uint32(w.spec.fixedAddr)
	default:
		e.Family = atlasdata.V4
		e.Addr = uint32(v4)
	}
	w.conns = append(w.conns, e)
	w.connectedSecs += int64(end.Sub(start))
}

func (w *walker) emitUptime(t simclock.Time) {
	w.ups = append(w.ups, atlasdata.UptimeSample{
		Timestamp: t, Uptime: int64(t.Sub(w.lastBoot)),
	})
}

// goodRound emits a round with every ping answered. A world's times lie
// in the study year, well inside the 32-bit seconds a KRootSample holds.
func (w *walker) goodRound(t simclock.Time) {
	w.rounds = append(w.rounds, atlasdata.KRootSample{
		Timestamp: uint32(t), Sent: 3, Success: 3,
		LTS: int32(30 + w.rnd.Int63n(205)),
	})
}

// kRootInterval is the real probes' built-in measurement cadence.
const kRootInterval = 4 * simclock.Minute

// emitNetworkOutageRounds writes the loss signature the paper's Table 3
// shows: a good round just before the outage, all-lost rounds with
// growing LTS throughout, and the detector-visible first/last loss
// rounds guaranteed present. Long outages are thinned in the middle.
func (w *walker) emitNetworkOutageRounds(ev outage.Event, resume simclock.Time) {
	pre := ev.Start.Add(-simclock.Duration(30 + w.rnd.Int63n(210)))
	w.goodRound(pre)

	lastSync := pre
	emitLoss := func(t simclock.Time) {
		w.rounds = append(w.rounds, atlasdata.KRootSample{
			Timestamp: uint32(t), Sent: 3, Success: 0,
			LTS: int32(t.Sub(lastSync)),
		})
	}
	first := ev.Start.Add(simclock.Duration(10 + w.rnd.Int63n(110)))
	if first.After(ev.End()) {
		first = ev.End()
	}
	last := ev.End().Add(-simclock.Duration(5 + w.rnd.Int63n(25)))
	if !first.Before(last) {
		// Very short outage: a single lost round.
		emitLoss(first)
	} else {
		emitLoss(first)
		// Interior rounds at the 4-minute cadence, thinned to at most 24.
		interior := int64(last.Sub(first) / kRootInterval)
		step := kRootInterval
		if interior > 24 {
			step = simclock.Duration(int64(last.Sub(first)) / 24)
		}
		for t := first.Add(step); t.Before(last); t = t.Add(step) {
			emitLoss(t)
		}
		emitLoss(last)
	}
	w.goodRound(resume.Add(simclock.Duration(30 + w.rnd.Int63n(90))))
	w.suppressHeartbeats(pre.Add(-kRootInterval), resume.Add(2*kRootInterval))
}

// emitPowerOutageSilence brackets a power outage with good rounds and
// leaves silence between them; the analysis infers the outage from the
// reboot plus this ping gap.
func (w *walker) emitPowerOutageSilence(ev outage.Event, resume simclock.Time) {
	pre := ev.Start.Add(-simclock.Duration(30 + w.rnd.Int63n(210)))
	w.goodRound(pre)
	w.goodRound(resume.Add(simclock.Duration(60 + w.rnd.Int63n(120))))
	w.suppressHeartbeats(pre.Add(-kRootInterval), resume.Add(2*kRootInterval))
}

func (w *walker) suppressHeartbeats(from, to simclock.Time) {
	w.noEmit = append(w.noEmit, timeSpan{from: from, to: to})
}

func (w *walker) suppressed(t simclock.Time) bool {
	for _, s := range w.noEmit {
		if !t.Before(s.from) && !t.After(s.to) {
			return true
		}
	}
	return false
}

// run simulates the probe and appends its records to ds.
func (w *walker) run(ds *atlasdata.Dataset) (ProbeTruth, error) {
	spec := &w.spec
	w.truth = ProbeTruth{
		ID: spec.id, ISP: spec.profile.Name, ASN: spec.profile.ASN,
		Country: spec.country, Version: spec.version, Special: spec.special,
		Kind: spec.profile.Kind, Period: spec.cohort.Period,
		SyncAnchored: spec.syncAnchored, RenumberOnOutage: spec.renumberOnOutage,
		TestingFirst: spec.testingFirst, ShortLived: spec.shortLived,
		V6Rotating: spec.v6Rotate,
	}

	events, err := outage.Generate(spec.profile.OutageConfig(), w.rnd.Split("outages"), spec.install, spec.depart)
	if err != nil {
		return ProbeTruth{}, err
	}
	var fw []simclock.Time
	frnd := w.rnd.Split("firmware")
	for _, t := range w.firmware {
		if t.After(spec.install) && t.Before(spec.depart) && frnd.Bool(w.cfg.FirmwareParticipation) {
			// Pushes roll out in stages; installs spread over ~36 hours,
			// which is what makes the reboot spike span the two-plus
			// consecutive days the paper's detector keys on (§5.2).
			fw = append(fw, t.Add(simclock.Duration(frnd.Int63n(int64(36*simclock.Hour)))))
		}
	}

	backend, err := w.newBackend(spec.profile, w.pool, w.rnd)
	if err != nil {
		return ProbeTruth{}, err
	}

	// The probe booted some time before the study; a fresh uptime
	// counter at install would itself read as a reboot.
	w.lastBoot = spec.install.Add(-simclock.Duration(simclock.Day) - simclock.Duration(w.rnd.Int63n(int64(30*simclock.Day))))

	connStart := spec.install
	// Testing-address first entry: the probe still carries the address
	// it used at RIPE NCC before shipping (paper §3.3).
	if spec.testingFirst {
		testEnd := connStart.Add(simclock.Duration(6+w.rnd.Intn(42)) * simclock.Hour)
		if testEnd.After(spec.depart) {
			testEnd = spec.depart
		}
		w.emitUptime(connStart)
		w.emitSession(connStart, testEnd, famV4, ip4.TestingAddr)
		gap := simclock.Duration(10+w.rnd.Intn(20)) * simclock.Minute
		connStart = testEnd.Add(gap)
		w.suppressHeartbeats(testEnd, connStart)
		if !connStart.Before(spec.depart) {
			w.flush(ds)
			return w.truth, nil
		}
	}

	addr := backend.Start(connStart)
	w.emitUptime(connStart)
	fam := w.pickFamily()

	// Rotating hosts' IPv6 sessions die when the privacy address's
	// lifetime lapses at the next day boundary (RFC 4941), so the
	// controller connection re-establishes — from the next day's
	// address.
	v6RotAt := simclock.Time(0)
	hasV6Rot := false
	scheduleV6Rotation := func() {
		hasV6Rot = spec.v6Rotate && fam == famV6
		if hasV6Rot {
			v6RotAt = connStart.TruncateDay().Add(simclock.Day).
				Add(simclock.Duration(w.rnd.Int63n(1800)))
		}
	}
	scheduleV6Rotation()

	spontRnd := w.rnd.Split("spontaneous")
	nextSpont := func(after simclock.Time) simclock.Time {
		if w.cfg.SpontaneousPerYear <= 0 {
			return spec.depart.Add(simclock.Day)
		}
		mean := float64(365*simclock.Day) / w.cfg.SpontaneousPerYear
		return after.Add(simclock.Duration(spontRnd.Exp(mean)) + simclock.Minute)
	}
	spont := nextSpont(connStart)

	forcedT, hasForced := backend.ForcedAt(connStart)
	switched := spec.special != Mover // true once the mover has switched

	// Administrative renumbering: the ISP migrates everyone on one day,
	// staged over a few hours per customer.
	adminAt := simclock.Time(0)
	adminPending := false
	if spec.profile.AdminRenumberDay > 0 {
		adminAt = simclock.StudyStart.
			Add(simclock.Duration(spec.profile.AdminRenumberDay) * simclock.Day).
			Add(simclock.Duration(w.rnd.Int63n(int64(6 * simclock.Hour))))
		adminPending = adminAt.After(spec.install) && adminAt.Before(spec.depart)
	}

	oi, fi := 0, 0
	for {
		// Discard events that fell inside a previous gap.
		for oi < len(events) && !events[oi].Start.After(connStart) {
			oi++
		}
		for fi < len(fw) && !fw[fi].After(connStart) {
			fi++
		}
		for !spont.After(connStart) {
			spont = nextSpont(connStart)
		}
		if hasForced && !forcedT.After(connStart) {
			forcedT, hasForced = backend.ForcedAt(connStart)
		}
		// A gap can jump past the planned ISP switch; move it forward so
		// the mover still moves.
		if !switched && !spec.switchAt.After(connStart) {
			spec.switchAt = connStart.Add(simclock.Hour)
		}
		if adminPending && !adminAt.After(connStart) {
			adminAt = connStart.Add(30 * simclock.Minute)
		}

		bestT := spec.depart
		bestKind := bkDepart
		var bestOutage outage.Event
		if oi < len(events) && events[oi].Start.Before(bestT) {
			bestT, bestKind, bestOutage = events[oi].Start, bkOutage, events[oi]
		}
		if fi < len(fw) && fw[fi].Before(bestT) {
			bestT, bestKind = fw[fi], bkFirmware
		}
		if spont.Before(bestT) {
			bestT, bestKind = spont, bkSpontaneous
		}
		if hasForced && forcedT.Before(bestT) {
			bestT, bestKind = forcedT, bkForced
		}
		if !switched && spec.switchAt.After(connStart) && spec.switchAt.Before(bestT) {
			bestT, bestKind = spec.switchAt, bkSwitch
		}
		if adminPending && adminAt.Before(bestT) {
			bestT, bestKind = adminAt, bkAdmin
		}
		if hasV6Rot && v6RotAt.After(connStart) && v6RotAt.Before(bestT) {
			bestT, bestKind = v6RotAt, bkV6Rotate
		}

		if bestKind == bkDepart {
			w.emitSession(connStart, spec.depart, fam, addr)
			break
		}

		w.emitSession(connStart, bestT, fam, addr)

		var resume simclock.Time
		changed := false
		rebootedInGap := false

		switch bestKind {
		case bkOutage:
			oi++
			end := bestOutage.End()
			if bestOutage.Kind == outage.Power {
				resume = end.Add(simclock.Duration(60 + w.rnd.Int63n(240)))
				w.lastBoot = end.Add(simclock.Duration(20 + w.rnd.Int63n(40)))
				w.truth.PowerOutages++
				w.truth.Reboots++
				rebootedInGap = true
				w.emitPowerOutageSilence(bestOutage, resume)
				if spec.special == DualStack && w.rnd.Bool(0.3) {
					spec.v6Serial++
				}
			} else {
				resume = end.Add(simclock.Duration(30 + w.rnd.Int63n(210)))
				w.truth.NetworkOutages++
				w.emitNetworkOutageRounds(bestOutage, resume)
			}
			addr, changed = backend.Resume(bestT, resume)
			forcedT, hasForced = backend.ForcedAt(resume)

		case bkForced:
			resume = bestT.Add(simclock.Duration(18+w.rnd.Intn(11)) * simclock.Minute)
			addr, changed = backend.ForcedRenumber(resume)
			forcedT, hasForced = backend.ForcedAt(resume)
			// CPE is up throughout; built-in measurements keep flowing.
			w.goodRound(bestT.Add(simclock.Duration(60 + w.rnd.Int63n(600))))
			w.suppressHeartbeats(bestT, resume)

		case bkFirmware:
			fi++
			resume = bestT.Add(simclock.Duration(3+w.rnd.Intn(6)) * simclock.Minute)
			w.lastBoot = bestT.Add(simclock.Duration(45 + w.rnd.Int63n(75)))
			w.truth.Reboots++
			w.truth.FirmwareReboots++
			rebootedInGap = true
			w.suppressHeartbeats(bestT.Add(-kRootInterval), resume.Add(2*kRootInterval))

		case bkSpontaneous:
			resume = bestT.Add(simclock.Duration(2+w.rnd.Intn(19)) * simclock.Minute)
			w.goodRound(bestT.Add(simclock.Duration(30 + w.rnd.Int63n(120))))
			w.suppressHeartbeats(bestT, resume)

		case bkV6Rotate:
			resume = bestT.Add(simclock.Duration(1+w.rnd.Intn(3)) * simclock.Minute)
			w.goodRound(bestT.Add(simclock.Duration(20 + w.rnd.Int63n(60))))
			w.suppressHeartbeats(bestT, resume)

		case bkAdmin:
			adminPending = false
			resume = bestT.Add(simclock.Duration(10+w.rnd.Intn(21)) * simclock.Minute)
			addr, changed = backend.AdminRenumber(resume)
			forcedT, hasForced = backend.ForcedAt(resume)
			w.truth.AdminRenumbered = changed
			w.goodRound(bestT.Add(simclock.Duration(60 + w.rnd.Int63n(300))))
			w.suppressHeartbeats(bestT, resume)

		case bkSwitch:
			switched = true
			resume = bestT.Add(simclock.Duration(5+w.rnd.Intn(26)) * simclock.Minute)
			// The probe now sits behind a different ISP: redraw the line
			// parameters from the new profile's ground truth.
			spec.cohort = spec.secondISP.PickCohort(w.rnd.Categorical)
			spec.syncAnchored = false
			if spec.secondISP.Kind == isp.PPP {
				spec.renumberOnOutage = w.rnd.Bool(spec.secondISP.OutageRenumberFrac)
			}
			backend, err = w.newBackend(spec.secondISP, spec.secondPool, w.rnd.Split("second"))
			if err != nil {
				return ProbeTruth{}, err
			}
			addr = backend.Start(resume)
			changed = true
			forcedT, hasForced = backend.ForcedAt(resume)
			w.goodRound(bestT.Add(simclock.Duration(60 + w.rnd.Int63n(300))))
			w.suppressHeartbeats(bestT, resume)
		}

		if changed {
			w.truth.V4AddressChanges++
			// v1/v2 hardware can reboot while re-establishing the TCP
			// connection after an address change (§5.1) — unless the
			// gap already contains a power-outage reboot.
			if !rebootedInGap && spec.version != atlasdata.V3 && w.rnd.Bool(w.cfg.V12RebootProb) {
				w.lastBoot = resume.Add(-simclock.Duration(30 + w.rnd.Int63n(90)))
				w.truth.Reboots++
				w.suppressHeartbeats(w.lastBoot.Add(-2*kRootInterval), resume.Add(kRootInterval))
			}
		}

		if !resume.Before(spec.depart) {
			break
		}
		connStart = resume
		w.emitUptime(connStart)
		fam = w.pickFamily()
		scheduleV6Rotation()
	}

	w.emitHeartbeats()
	w.flush(ds)
	return w.truth, nil
}

// emitHeartbeats lays down background good rounds outside suppressed
// windows.
func (w *walker) emitHeartbeats() {
	hb := w.cfg.KRootHeartbeat
	if hb <= 0 {
		return
	}
	for t := w.spec.install.Add(hb); t.Before(w.spec.depart); t = t.Add(hb) {
		if !w.suppressed(t) {
			w.goodRound(t)
		}
	}
}

// flush moves the probe's records and metadata into the dataset.
func (w *walker) flush(ds *atlasdata.Dataset) {
	ds.Probes[w.spec.id] = atlasdata.ProbeMeta{
		ID:            w.spec.id,
		Country:       w.spec.country,
		Version:       w.spec.version,
		Tags:          w.spec.tags,
		ConnectedDays: float64(w.connectedSecs) / 86400,
	}
	// The sessions' literals go to the dataset's table in time order, the
	// order Load interns a saved world's in.
	sort.Slice(w.conns, func(i, j int) bool { return w.conns[i].Start < w.conns[j].Start })
	for i := range w.conns {
		if c := &w.conns[i]; c.Family == atlasdata.V6 {
			c.Addr = w.v6.Intern(w.lits[c.Addr])
		}
	}
	ds.ConnLogs[w.spec.id] = w.conns
	ds.KRoot[w.spec.id] = w.rounds
	ds.Uptime[w.spec.id] = w.ups
}
