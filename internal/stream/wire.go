package stream

import (
	"context"
	"fmt"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/wire"
)

// The wire codec's kind bytes double as the stream's record kinds. The
// conversions below are compile-time anchored so a reordering on either
// side fails to build rather than silently mislabelling records.
var _ = [1]struct{}{}[recordKind(wire.KindMeta)-kindMeta]
var _ = [1]struct{}{}[recordKind(wire.KindConn)-kindConn]
var _ = [1]struct{}{}[recordKind(wire.KindKRoot)-kindKRoot]
var _ = [1]struct{}{}[recordKind(wire.KindUptime)-kindUptime]

// The internal/wire record payload is the stream's only per-record
// encoding: IngestWire decodes it, the shard appends it to the WAL,
// ReleasePartition ships it as the partition tail, and the dead-letter
// queue keeps it. A WAL segment is therefore a wire batch, byte for
// byte, and recovery replays exactly the records the live path applied.

// decodeRecord decodes one wire record payload into rec. It checks the
// encoding only; validate checks the record. The record is an
// out-parameter because it is a few hundred bytes and IngestWire decodes
// one per frame: returning it would copy it on every record.
func decodeRecord(payload []byte, rec *record) error {
	kind, err := wire.PayloadKind(payload)
	if err != nil {
		return err
	}
	*rec = record{kind: recordKind(kind)}
	switch kind {
	case wire.KindMeta:
		rec.meta, err = wire.DecodeMeta(payload)
	case wire.KindConn:
		rec.conn, err = wire.DecodeConnLog(payload)
	case wire.KindKRoot:
		rec.kroot, err = wire.DecodeKRoot(payload)
	case wire.KindUptime:
		rec.uptime, err = wire.DecodeUptime(payload)
	}
	return err
}

// appendRecord appends a data record's wire payload to dst. It is the
// inverse of decodeRecord: a payload has exactly one valid reading, so
// decoding and re-encoding reproduces it byte for byte.
func appendRecord(dst []byte, rec *record) ([]byte, error) {
	switch rec.kind {
	case kindMeta:
		return wire.AppendMeta(dst, rec.meta)
	case kindConn:
		return wire.AppendConnLog(dst, rec.conn)
	case kindKRoot:
		return wire.AppendKRoot(dst, rec.kroot)
	case kindUptime:
		return wire.AppendUptime(dst, rec.uptime)
	}
	return dst, fmt.Errorf("stream: record kind %d has no wire encoding", rec.kind)
}

// validate checks a data record's internal consistency.
func (rec *record) validate() error {
	switch rec.kind {
	case kindMeta:
		return rec.meta.Validate()
	case kindConn:
		return rec.conn.Validate()
	case kindKRoot:
		return rec.kroot.Validate()
	case kindUptime:
		return rec.uptime.Validate()
	}
	return fmt.Errorf("stream: record kind %d is not a data record", rec.kind)
}

// probeID is the probe a data record belongs to.
func (rec *record) probeID() atlasdata.ProbeID {
	switch rec.kind {
	case kindMeta:
		return rec.meta.ID
	case kindConn:
		return rec.conn.Probe
	case kindKRoot:
		return rec.kroot.Probe
	case kindUptime:
		return rec.uptime.Probe
	}
	return 0
}

// WireStats summarises one wire batch ingest: how many records were
// routed into the shards and how many were dead-lettered instead.
type WireStats struct {
	Accepted    int
	Quarantined int
}

// Consumed is the count of records drawn from the batch, accepted or
// quarantined — the prefix a partial-accept producer must not re-send.
func (st WireStats) Consumed() int { return st.Accepted + st.Quarantined }

// IngestWire decodes a binary wire batch (concatenated internal/wire
// frames) straight into the shards: each frame becomes one record
// envelope on its probe's shard channel, with no intermediate structs,
// per-record interfaces, or reflection. IPv4 sessions, k-root rounds,
// and uptime reports take zero heap allocations per record; probe
// metadata and IPv6 sessions allocate only their strings.
//
// Failure semantics: a record that fails decode or validation inside
// an otherwise well-framed batch is quarantined to the dead-letter
// queue and ingestion continues — one poison record no longer fails
// its batch. Frame-level corruption (bad CRC, torn frame) still aborts
// at the offending frame, as do send failures (closed, cancelled, or
// degraded shard): everything before the abort is already in flight,
// and the error reports Consumed() records as the non-resend prefix.
func (in *Ingester) IngestWire(ctx context.Context, batch []byte) (WireStats, error) {
	it := wire.Frames(batch)
	var (
		st  WireStats
		rec record
	)
	for {
		payload, done, err := it.Next()
		if err != nil {
			return st, fmt.Errorf("record %d: %w", st.Consumed(), err)
		}
		if done {
			return st, nil
		}
		// The hot path stays closure-free: a per-record defect routes
		// through quarantineWire (cold, never inlined into this loop).
		err = decodeRecord(payload, &rec)
		if err == nil {
			err = rec.validate()
		}
		if err != nil {
			if qerr := in.quarantineWire(ctx, &st, err, payload); qerr != nil {
				return st, qerr
			}
			continue
		}
		if err := in.send(ctx, rec.probeID(), rec); err != nil {
			return st, fmt.Errorf("record %d (%s): %w", st.Consumed(), wire.Kind(rec.kind), err)
		}
		st.Accepted++
	}
}

// quarantineWire dead-letters one wire record that failed decodeRecord
// or validate, labelled by how far it got: an unknown kind byte is a
// "frame" record with reason "unknown-kind", a body that does not
// decode has reason "decode", and only a decoded record carries its
// probe ID, with reason "validate". Its own error is a send failure and
// aborts the batch like any other.
//
//go:noinline
func (in *Ingester) quarantineWire(ctx context.Context, st *WireStats, cause error, payload []byte) error {
	label, probe, reason := "frame", atlasdata.ProbeID(0), "unknown-kind"
	if kind, err := wire.PayloadKind(payload); err == nil {
		label, reason = kind.String(), "decode"
		var rec record
		if decodeRecord(payload, &rec) == nil {
			probe, reason = rec.probeID(), "validate"
		}
	}
	if err := in.Quarantine(ctx, label, probe, reason, cause.Error(), payload); err != nil {
		return fmt.Errorf("record %d (%s): quarantine: %w", st.Consumed(), label, err)
	}
	st.Quarantined++
	return nil
}
