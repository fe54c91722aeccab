package atlasapi

import (
	"strconv"
	"sync/atomic"
	"time"

	"dynaddr/internal/obs"
)

// Admission defaults used when a config field is zero.
const (
	DefaultMaxInFlight = 256
	DefaultMaxWait     = 100 * time.Millisecond
	DefaultHighWater   = 0.9
	DefaultRetryAfter  = 1 * time.Second
)

// AdmissionConfig parameterises the ingest admission controller.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrent ingest requests; zero means
	// DefaultMaxInFlight, negative disables the gate.
	MaxInFlight int
	// MaxWait bounds how long an arriving request queues for a slot
	// before being shed — the bounded-queue part of the gate. Zero means
	// DefaultMaxWait; negative means no waiting (shed immediately when
	// saturated).
	MaxWait time.Duration
	// HighWater is the shard-queue fill fraction (0..1] above which
	// ingest is shed outright: the shards are already backed up, so
	// letting more batches queue only converts fast 429s into slow
	// blocked handlers. Zero means DefaultHighWater; negative disables
	// the pressure check.
	HighWater float64
	// RetryAfter is the pacing hint sent with shed responses (and with
	// degraded-shard 503s). Zero means DefaultRetryAfter.
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxWait == 0 {
		c.MaxWait = DefaultMaxWait
	}
	if c.HighWater == 0 {
		c.HighWater = DefaultHighWater
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Admission is the ingest overload gate: a slot pool with a bounded
// queue wait, plus a shard-queue pressure valve. Requests that cannot
// be admitted are shed with 429 and a Retry-After pacing hint instead
// of piling onto the shard channels. It also remembers that it
// recently shed — the serving tier uses Hot to keep answering reads
// from the last published generation while ingest is fighting for its
// life.
type Admission struct {
	cfg      AdmissionConfig
	slots    chan struct{}  // nil when the gate is off
	pressure func() float64 // shard-queue fill fraction; nil = none

	reg     *obs.Registry
	lastHot atomic.Int64 // unix nanos of the last shed
}

// NewAdmission builds an admission gate. pressure reports the shard
// queues' worst fill fraction (stream.Ingester.QueuePressure); nil
// disables the pressure valve. reg receives ingest_shed_total; nil
// disables instrumentation.
func NewAdmission(cfg AdmissionConfig, pressure func() float64, reg *obs.Registry) *Admission {
	cfg = cfg.withDefaults()
	a := &Admission{cfg: cfg, pressure: pressure, reg: reg}
	if cfg.MaxInFlight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	return a
}

// RetryAfter is the pacing hint shed responses carry.
func (a *Admission) RetryAfter() time.Duration { return a.cfg.RetryAfter }

// Admit tries to claim an ingest slot; route labels the shed counter.
// On success it returns a release func the caller must invoke when the
// request finishes. On refusal ok is false and reason says why:
// "pressure" (shard queues over the high-watermark) or "saturated" (no
// slot freed within the queue wait).
func (a *Admission) Admit(route string) (release func(), reason string, ok bool) {
	if a.pressure != nil && a.cfg.HighWater > 0 {
		if p := a.pressure(); p >= a.cfg.HighWater {
			a.shed(route, "pressure")
			return nil, "pressure", false
		}
	}
	release = func() {}
	if a.slots != nil {
		if !a.acquire() {
			a.shed(route, "saturated")
			return nil, "saturated", false
		}
		release = func() { <-a.slots }
	}
	return release, "", true
}

// acquire claims one slot, waiting up to the bounded queue wait.
func (a *Admission) acquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
	}
	if a.cfg.MaxWait <= 0 {
		return false
	}
	t := time.NewTimer(a.cfg.MaxWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (a *Admission) shed(route, reason string) {
	a.lastHot.Store(time.Now().UnixNano())
	if a.reg != nil {
		a.reg.Counter("ingest_shed_total",
			"Ingest requests shed by admission control, by route and reason.",
			obs.L("route", route), obs.L("reason", reason)).Inc()
	}
}

// Hot reports whether ingest is currently under overload: the shard
// queues are over the high-watermark, or admission shed a request
// within the last two Retry-After windows. The serving tier's pressure
// valve keys on this to serve the last published generation instead of
// competing with ingest for a fresh snapshot barrier.
func (a *Admission) Hot() bool {
	if a.pressure != nil && a.cfg.HighWater > 0 && a.pressure() >= a.cfg.HighWater {
		return true
	}
	last := a.lastHot.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < 2*a.cfg.RetryAfter
}

// retryAfterHeader renders a Retry-After value (integer seconds,
// rounded up so a sub-second hint never becomes "0").
func retryAfterHeader(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
