package atlasapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sync"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
)

// RouteStreamRecords is the ingest endpoint: one POST route for all
// four record kinds, codec negotiated via Content-Type.
const RouteStreamRecords = "/api/v2/stream/records"

// Content types the v2 endpoint negotiates.
const (
	// ContentTypeBinary selects the internal/wire framed binary codec —
	// the zero-allocation hot path.
	ContentTypeBinary = "application/x-atlas-binary"
	// ContentTypeNDJSON selects the NDJSON envelope fallback: one JSON
	// object per line with a "kind" discriminator.
	ContentTypeNDJSON = "application/x-ndjson"
)

// DefaultMaxBatchBytes bounds a v2 batch body unless WithMaxBatchBytes
// overrides it. It matches the wire format's per-frame payload bound.
const DefaultMaxBatchBytes = 16 << 20

// Codec names an ingest encoding, used as the producer option and the
// per-codec metrics label.
type Codec string

// Ingest codecs, most compatible first.
const (
	// CodecNDJSON is the v2 NDJSON envelope.
	CodecNDJSON Codec = "ndjson"
	// CodecBinary is the v2 framed binary codec.
	CodecBinary Codec = "binary"
)

// LiveOption configures a LiveServer.
type LiveOption func(*LiveServer)

// WithLiveMetrics attaches an obs registry: batch and record counters
// split by codec (accepted and rejected).
func WithLiveMetrics(reg *obs.Registry) LiveOption {
	return func(s *LiveServer) { s.reg = reg }
}

// WithMaxBatchBytes bounds v2 batch bodies (default
// DefaultMaxBatchBytes). Oversized bodies are rejected with 400 before
// they buffer.
func WithMaxBatchBytes(n int64) LiveOption {
	return func(s *LiveServer) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithServeTier serves the snapshot-derived live GETs (summary,
// continents, AS detail, analysis) from the tier's pinned generations
// instead of taking an authoritative barrier per request. The tier must
// wrap the same ingester.
func WithServeTier(t *serve.Tier) LiveOption {
	return func(s *LiveServer) { s.tier = t }
}

// WithAdmission gates the ingest routes behind an admission controller:
// requests beyond its in-flight budget (or arriving while the shard
// queues are over the high-watermark) are shed with 429 and a
// Retry-After pacing hint instead of queueing without bound. The same
// controller drives the serve-tier pressure valve.
func WithAdmission(a *Admission) LiveOption {
	return func(s *LiveServer) { s.adm = a }
}

// WithErrorLog routes server-side error logging (the real text behind
// generic 500 bodies). Default log.Printf; nil discards.
func WithErrorLog(logf func(format string, args ...any)) LiveOption {
	return func(s *LiveServer) {
		if logf == nil {
			logf = func(string, ...any) {}
		}
		s.logf = logf
	}
}

// batchPool recycles body buffers across v2 batch requests so steady
// ingest does not re-grow a buffer per POST.
var batchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// batchPoolFactor caps what returns to batchPool, as a multiple of the
// configured batch bound. bytes.Buffer.ReadFrom over-allocates past the
// body size, so a cap of exactly maxBatch would evict every full-size
// batch's buffer and defeat the pool; 4x keeps those while refusing to
// pin pathological growth forever.
const batchPoolFactor = 4

// poolable reports whether a buffer of capacity c should be pooled
// under batch bound max.
func poolable(c, max int64) bool { return c <= batchPoolFactor*max }

// putBatchBuf returns a body buffer to the pool, dropping oversized
// ones for the garbage collector instead.
func (s *LiveServer) putBatchBuf(buf *bytes.Buffer) {
	if !poolable(int64(buf.Cap()), s.maxBatch) {
		return
	}
	buf.Reset()
	batchPool.Put(buf)
}

// negotiateCodec maps a request Content-Type to an ingest codec. An
// absent Content-Type falls back to the NDJSON envelope; an unknown
// one is a 415.
func negotiateCodec(contentType string) (Codec, error) {
	if contentType == "" {
		return CodecNDJSON, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return "", fmt.Errorf("unparseable Content-Type %q", contentType)
	}
	switch mt {
	case ContentTypeBinary:
		return CodecBinary, nil
	case ContentTypeNDJSON, "application/json":
		return CodecNDJSON, nil
	}
	return "", fmt.Errorf("unsupported Content-Type %q (want %s or %s)", mt, ContentTypeBinary, ContentTypeNDJSON)
}

func (s *LiveServer) batchAccepted(codec Codec, n int) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("ingest_batches_total",
		"Ingest batches accepted, by codec.", obs.L("codec", string(codec))).Inc()
	s.reg.Counter("ingest_batch_records_total",
		"Records accepted from ingest batches, by codec.", obs.L("codec", string(codec))).Add(int64(n))
}

func (s *LiveServer) batchRejected(codec Codec) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("ingest_batches_rejected_total",
		"Ingest batches rejected, by codec.", obs.L("codec", string(codec))).Inc()
}

// postRecords is the ingest dispatch core: admission, codec
// negotiation, decode straight into the shards, answer
// {"accepted": n}. A request admission refuses gets 429 with a
// Retry-After pacing hint.
func (s *LiveServer) postRecords(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.adm != nil {
		release, reason, ok := s.adm.Admit("v2")
		if !ok {
			w.Header().Set("Retry-After", retryAfterHeader(s.adm.RetryAfter()))
			apiError(w, http.StatusTooManyRequests, "ingest overloaded ("+reason+"); retry after the indicated delay")
			return
		}
		defer release()
	}
	codec, err := negotiateCodec(r.Header.Get("Content-Type"))
	if err != nil {
		s.batchRejected(Codec("unknown"))
		apiError(w, http.StatusUnsupportedMediaType, err.Error())
		return
	}
	var st stream.WireStats
	switch codec {
	case CodecBinary:
		st, err = s.ingestBinary(w, r)
	default:
		st, err = s.ingestNDJSON(w, r)
	}
	if err != nil {
		s.batchRejected(codec)
		s.ingestError(w, err, st.Consumed())
		return
	}
	s.batchAccepted(codec, st.Accepted)
	respondAccepted(w, st)
}

// ingestBinary buffers the body (pooled, bounded) and hands the raw
// frames to the ingester — no intermediate structs, zero heap
// allocations per v4 record.
func (s *LiveServer) ingestBinary(w http.ResponseWriter, r *http.Request) (stream.WireStats, error) {
	buf := batchPool.Get().(*bytes.Buffer)
	defer s.putBatchBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBatch)); err != nil {
		return stream.WireStats{}, fmt.Errorf("reading batch: %w", err)
	}
	return s.ing.IngestWire(r.Context(), buf.Bytes())
}

// recordEnvelope is one line of the v2 NDJSON fallback: a "kind"
// discriminator plus that kind's fields. The producer's NDJSON codec
// emits exactly this shape.
type recordEnvelope struct {
	Kind  string `json:"kind"`
	Probe int    `json:"probe"`

	// meta
	Country       string   `json:"country,omitempty"`
	Version       int      `json:"version,omitempty"`
	Tags          []string `json:"tags,omitempty"`
	ConnectedDays float64  `json:"connected_days,omitempty"`

	// connlog ("addr" carries either family; a literal with a colon is v6)
	Start int64  `json:"start,omitempty"`
	End   int64  `json:"end,omitempty"`
	Addr  string `json:"addr,omitempty"`

	// kroot / uptime
	Timestamp int64 `json:"timestamp,omitempty"`
	Sent      int   `json:"sent,omitempty"`
	Success   int   `json:"success,omitempty"`
	LTS       int64 `json:"lts,omitempty"`
	Uptime    int64 `json:"uptime,omitempty"`
}

// ingest dispatches one envelope to the ingester's typed entry points.
func (e *recordEnvelope) ingest(ctx context.Context, ing *stream.Ingester) error {
	id := atlasdata.ProbeID(e.Probe)
	switch e.Kind {
	case "meta":
		return ing.MetaContext(ctx, atlasdata.ProbeMeta{
			ID:            id,
			Country:       e.Country,
			Version:       atlasdata.ProbeVersion(e.Version),
			Tags:          e.Tags,
			ConnectedDays: e.ConnectedDays,
		})
	case "connlog":
		entry, err := newConnLogEntry(id, e.Start, e.End, e.Addr)
		if err != nil {
			return err
		}
		return ing.ConnLogContext(ctx, entry)
	case "kroot":
		k, err := atlasdata.NewKRootRound(id, simclock.Time(e.Timestamp), e.Sent, e.Success, e.LTS)
		if err != nil {
			return err
		}
		return ing.KRootContext(ctx, k)
	case "uptime":
		return ing.UptimeContext(ctx, atlasdata.UptimeRecord{
			Probe:     id,
			Timestamp: simclock.Time(e.Timestamp),
			Uptime:    e.Uptime,
		})
	}
	return fmt.Errorf("unknown record kind %q", e.Kind)
}

// ingestAbort reports whether an ingest failure is a capacity,
// lifecycle or routing condition that must fail the batch (closed or
// degraded ingester, cancelled request, a record for a partition this
// peer does not own) rather than a per-record defect the dead-letter
// queue absorbs.
func ingestAbort(err error) bool {
	return errors.Is(err, stream.ErrClosed) || errors.Is(err, stream.ErrDegraded) || errors.Is(err, stream.ErrNotOwner) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// knownEnvelopeKind reports whether an NDJSON envelope names one of the
// four record streams.
func knownEnvelopeKind(k string) bool {
	switch k {
	case "meta", "connlog", "kroot", "uptime":
		return true
	}
	return false
}

// ingestNDJSON streams the envelope fallback line by line. A line that
// fails to parse, names an unknown kind, or fails validation is
// quarantined to the dead-letter queue and the batch continues; only
// framing failures of the batch itself (oversize, truncated body) and
// capacity conditions abort.
func (s *LiveServer) ingestNDJSON(w http.ResponseWriter, r *http.Request) (stream.WireStats, error) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxBatch))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var st stream.WireStats
	quar := func(kind string, probe atlasdata.ProbeID, reason string, cause error, line []byte) error {
		err := s.ing.Quarantine(r.Context(), kind, probe, reason, cause.Error(), line)
		if err != nil {
			return fmt.Errorf("record %d: quarantine: %w", st.Consumed(), err)
		}
		st.Quarantined++
		return nil
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env recordEnvelope
		if err := json.Unmarshal(line, &env); err != nil {
			if qerr := quar("frame", 0, "decode", err, line); qerr != nil {
				return st, qerr
			}
			continue
		}
		if !knownEnvelopeKind(env.Kind) {
			err := fmt.Errorf("unknown record kind %q", env.Kind)
			if qerr := quar("frame", atlasdata.ProbeID(env.Probe), "unknown-kind", err, line); qerr != nil {
				return st, qerr
			}
			continue
		}
		if err := env.ingest(r.Context(), s.ing); err != nil {
			if ingestAbort(err) {
				return st, fmt.Errorf("record %d (%s): %w", st.Consumed(), env.Kind, err)
			}
			if qerr := quar(env.Kind, atlasdata.ProbeID(env.Probe), "validate", err, line); qerr != nil {
				return st, qerr
			}
			continue
		}
		st.Accepted++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("reading batch: %w", err)
	}
	return st, nil
}
