package atlasapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/obs"
	"dynaddr/internal/wire"
)

// StreamProducer pushes records into a LiveServer's ingest endpoint
// over HTTP. It implements the generator's RecordSink shape (Meta,
// ConnLog, KRoot, Uptime), so sim.GenerateTo and sim.ReplayDataset can
// drive a remote ingester directly — the producer side of the live
// collection pipeline. Records are buffered in arrival order and each
// flush POSTs the buffer — cross-kind order intact — to
// /api/v2/stream/records, framed as one internal/wire batch
// (CodecBinary, the default) or as NDJSON envelope lines
// (CodecNDJSON).
//
// Both codecs preserve the cross-stream interleaving the ingester's
// per-probe state machines observe, so streaming through the producer
// is equivalent to feeding the ingester in process.
// Transient failures (transport errors, 429, 5xx) are retried with the
// same jittered exponential backoff the scrape client uses, honouring
// server Retry-After pacing hints (capped at the policy maximum);
// other 4xx responses are permanent. Under sustained shedding a
// circuit breaker holds requests off for a cooldown, and batches
// adaptively halve (regrowing on success) so each attempt clears
// admission faster. A partially accepted batch is trimmed to the
// server-reported consumed prefix before the retry — no record is ever
// sent twice.
//
// Configure it with options (WithCodec, WithBatchSize, WithBackoff, …);
// the exported fields remain settable for older call sites.
//
// The producer is not safe for concurrent use; drive it from one
// goroutine (RecordSink deliveries are sequential by contract) and call
// Flush when the stream ends to drain the buffer.
type StreamProducer struct {
	// BaseURL is the server root, e.g. "http://atlas.example.org".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retries is how many times a failed POST is retried before giving
	// up; zero means 2.
	Retries int
	// Backoff spaces retry attempts; the zero value uses the package
	// defaults (see backoff.Policy).
	Backoff backoff.Policy
	// BatchSize is the number of records buffered before the producer
	// flushes; zero means 128.
	BatchSize int

	ctx      context.Context
	codec    Codec
	jitter   backoff.Jitter
	buf      []streamRecord
	wire     wire.BatchWriter
	breaker  backoff.Breaker
	curBatch int
}

// ProducerOption configures a StreamProducer.
type ProducerOption func(*StreamProducer)

// WithCodec selects the flush encoding: CodecBinary (the default) or
// CodecNDJSON.
func WithCodec(c Codec) ProducerOption {
	return func(p *StreamProducer) { p.codec = c }
}

// WithBatchSize sets how many records buffer before an automatic flush.
func WithBatchSize(n int) ProducerOption {
	return func(p *StreamProducer) { p.BatchSize = n }
}

// WithBackoff sets the retry spacing policy.
func WithBackoff(pol backoff.Policy) ProducerOption {
	return func(p *StreamProducer) { p.Backoff = pol }
}

// WithRetries sets how many times a failed POST is retried.
func WithRetries(n int) ProducerOption {
	return func(p *StreamProducer) { p.Retries = n }
}

// WithHTTPClient replaces http.DefaultClient.
func WithHTTPClient(c *http.Client) ProducerOption {
	return func(p *StreamProducer) { p.HTTPClient = c }
}

// WithBreaker tunes the producer's circuit breaker (consecutive
// failures before opening, cooldown while open). The zero-value
// breaker — threshold 5, cooldown 2s — is always active; this option
// only re-parameterises it.
func WithBreaker(threshold int, cooldown time.Duration) ProducerOption {
	return func(p *StreamProducer) {
		p.breaker.Threshold = threshold
		p.breaker.Cooldown = cooldown
	}
}

// WithProducerMetrics registers the producer's breaker-state gauge
// (0 closed, 1 half-open, 2 open) on reg, labelled by name so several
// producers can share a registry.
func WithProducerMetrics(reg *obs.Registry, name string) ProducerOption {
	return func(p *StreamProducer) {
		br := &p.breaker
		reg.GaugeFunc("producer_breaker_state",
			"Producer circuit-breaker position: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch br.State(time.Now()) {
				case backoff.BreakerOpen:
					return 2
				case backoff.BreakerHalfOpen:
					return 1
				}
				return 0
			}, obs.L("producer", name))
	}
}

type recordKind int

const (
	kindMeta recordKind = iota
	kindConn
	kindKRoot
	kindUptime
)

// streamRecord is one buffered record of any kind.
type streamRecord struct {
	kind   recordKind
	meta   atlasdata.ProbeMeta
	conn   atlasdata.ConnLogEntry
	kroot  atlasdata.KRootRound
	uptime atlasdata.UptimeRecord
}

// NewStreamProducer returns a producer that POSTs to baseURL under ctx:
// cancelling the context aborts in-flight POSTs and backoff sleeps.
func NewStreamProducer(ctx context.Context, baseURL string, opts ...ProducerOption) *StreamProducer {
	p := &StreamProducer{BaseURL: baseURL, ctx: ctx, codec: CodecBinary}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

func (p *StreamProducer) context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

func (p *StreamProducer) batchSize() int {
	if p.BatchSize > 0 {
		return p.BatchSize
	}
	return 128
}

func (p *StreamProducer) push(r streamRecord) error {
	p.buf = append(p.buf, r)
	if len(p.buf) >= p.batchSize() {
		return p.Flush()
	}
	return nil
}

// Meta buffers one probe's metadata.
func (p *StreamProducer) Meta(m atlasdata.ProbeMeta) error {
	return p.push(streamRecord{kind: kindMeta, meta: m})
}

// ConnLog buffers one session record.
func (p *StreamProducer) ConnLog(e atlasdata.ConnLogEntry) error {
	return p.push(streamRecord{kind: kindConn, conn: e})
}

// KRoot buffers one ping round.
func (p *StreamProducer) KRoot(k atlasdata.KRootRound) error {
	return p.push(streamRecord{kind: kindKRoot, kroot: k})
}

// Uptime buffers one uptime report.
func (p *StreamProducer) Uptime(u atlasdata.UptimeRecord) error {
	return p.push(streamRecord{kind: kindUptime, uptime: u})
}

// minAdaptiveBatch is the floor the adaptive batch size halves down to
// under sustained rejection (unless the configured batch is smaller).
const minAdaptiveBatch = 16

// effBatch is the current adaptive batch size: how many records one
// POST carries. It starts at the configured BatchSize, halves toward
// minAdaptiveBatch when the server sheds load (smaller batches clear
// admission faster and lose less work per rejection), and doubles back
// once deliveries succeed.
func (p *StreamProducer) effBatch() int {
	if p.curBatch <= 0 {
		p.curBatch = p.batchSize()
	}
	return p.curBatch
}

func (p *StreamProducer) shrinkBatch() {
	floor := minAdaptiveBatch
	if bs := p.batchSize(); bs < floor {
		floor = bs
	}
	if p.curBatch = p.effBatch() / 2; p.curBatch < floor {
		p.curBatch = floor
	}
}

func (p *StreamProducer) growBatch() {
	if p.curBatch = p.effBatch() * 2; p.curBatch > p.batchSize() {
		p.curBatch = p.batchSize()
	}
}

// Flush delivers the buffer in adaptive-size batches under the
// configured codec. Call it when the stream ends; a failed flush leaves
// the undelivered records buffered, so it is safe to retry, and a
// partially accepted batch is trimmed so nothing already consumed by
// the server is re-sent.
func (p *StreamProducer) Flush() error {
	encode := p.encodeBinary
	if p.codec == CodecNDJSON {
		encode = p.encodeNDJSON
	}
	for len(p.buf) > 0 {
		if err := p.deliverOne(encode); err != nil {
			return err
		}
	}
	p.buf = nil
	return nil
}

// encodedBatch is one POST-able prefix of the buffer: how it is
// framed and how many buffered records it carries.
type encodedBatch struct {
	contentType string
	body        []byte
	n           int
}

// encodeBinary frames a buffer prefix as one wire batch. The batch
// writer (and its buffers) are reused across flushes, so a steady
// producer stops allocating once its batch buffer has grown to size.
func (p *StreamProducer) encodeBinary(recs []streamRecord) (encodedBatch, error) {
	p.wire.Reset()
	for _, r := range recs {
		var err error
		switch r.kind {
		case kindMeta:
			err = p.wire.Meta(r.meta)
		case kindConn:
			err = p.wire.ConnLog(r.conn)
		case kindKRoot:
			err = p.wire.KRoot(r.kroot)
		case kindUptime:
			err = p.wire.Uptime(r.uptime)
		}
		if err != nil {
			return encodedBatch{}, err
		}
	}
	return encodedBatch{contentType: ContentTypeBinary, body: p.wire.Bytes(), n: len(recs)}, nil
}

// envelope converts a buffered record to its NDJSON line shape.
func (r streamRecord) envelope() recordEnvelope {
	switch r.kind {
	case kindMeta:
		return recordEnvelope{
			Kind:          "meta",
			Probe:         int(r.meta.ID),
			Country:       r.meta.Country,
			Version:       int(r.meta.Version),
			Tags:          r.meta.Tags,
			ConnectedDays: r.meta.ConnectedDays,
		}
	case kindConn:
		env := recordEnvelope{
			Kind:  "connlog",
			Probe: int(r.conn.Probe),
			Start: int64(r.conn.Start),
			End:   int64(r.conn.End),
		}
		if r.conn.Family == atlasdata.V6 {
			env.Addr = r.conn.V6Addr
		} else {
			env.Addr = r.conn.Addr.String()
		}
		return env
	case kindKRoot:
		return recordEnvelope{
			Kind:      "kroot",
			Probe:     int(r.kroot.Probe),
			Timestamp: int64(r.kroot.Timestamp),
			Sent:      int(r.kroot.Sent),
			Success:   int(r.kroot.Success),
			LTS:       int64(r.kroot.LTS),
		}
	}
	return recordEnvelope{
		Kind:      "uptime",
		Probe:     int(r.uptime.Probe),
		Timestamp: int64(r.uptime.Timestamp),
		Uptime:    r.uptime.Uptime,
	}
}

// encodeNDJSON frames a buffer prefix as v2 envelope lines.
func (p *StreamProducer) encodeNDJSON(recs []streamRecord) (encodedBatch, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, r := range recs {
		if err := enc.Encode(r.envelope()); err != nil {
			return encodedBatch{}, err
		}
	}
	return encodedBatch{contentType: ContentTypeNDJSON, body: body.Bytes(), n: len(recs)}, nil
}

// postResult is what one POST attempt came back with.
type postResult struct {
	status     int
	statusLine string
	retryAfter time.Duration
	// consumed is the batch prefix the server reports having taken —
	// the full batch on 200, the error envelope's "accepted" field
	// otherwise. Either way these records must not be re-sent.
	consumed int
	msg      []byte
}

// postOnce sends one batch attempt. A returned error is a transport
// failure; HTTP-level failures come back in the postResult.
func (p *StreamProducer) postOnce(ctx context.Context, eb encodedBatch) (postResult, error) {
	client := p.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.BaseURL+RouteStreamRecords, bytes.NewReader(eb.body))
	if err != nil {
		return postResult{}, err
	}
	req.Header.Set("Content-Type", eb.contentType)
	resp, err := client.Do(req)
	if err != nil {
		return postResult{}, err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	// Drain whatever follows the captured prefix before closing:
	// closing a body with unread bytes kills the underlying
	// connection, so a sustained producer would open a fresh one per
	// batch instead of reusing its keep-alive connection.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain
	resp.Body.Close()
	res := postResult{status: resp.StatusCode, statusLine: resp.Status, retryAfter: ParseRetryAfter(resp), msg: msg}
	if resp.StatusCode == http.StatusOK {
		res.consumed = eb.n
		return res, nil
	}
	// Ingest error envelopes carry the consumed batch prefix in
	// "accepted"; responses without one (proxies, panics) leave it 0 and
	// the whole batch is retried, which the ingester tolerates only for
	// idempotent re-sends — hence the server reports it whenever it
	// consumed anything.
	var env struct {
		Accepted int `json:"accepted"`
	}
	if json.Unmarshal(msg, &env) == nil && env.Accepted > 0 {
		if env.Accepted > eb.n {
			env.Accepted = eb.n
		}
		res.consumed = env.Accepted
	}
	return res, nil
}

// deliverOne sends one encoded batch off the front of the buffer,
// retrying transient failures. Between attempts the accepted prefix is
// trimmed and the remainder re-encoded, so a partially consumed batch
// is never duplicated; the circuit breaker paces attempts while the
// server sheds, and 429/503 Retry-After hints replace the backoff
// delay (capped at the policy maximum). Progress (any accepted prefix)
// resets the retry budget.
func (p *StreamProducer) deliverOne(encode func([]streamRecord) (encodedBatch, error)) error {
	ctx := p.context()
	retries := p.Retries
	if retries <= 0 {
		retries = 2
	}
	var lastErr error
	var retryAfter time.Duration
	attempt := 0
	for len(p.buf) > 0 {
		if w := p.breaker.Wait(time.Now()); w > 0 {
			if err := sleepFor(ctx, w); err != nil {
				return fmt.Errorf("atlasapi: POST: cancelled during breaker cooldown: %w (last error: %v)", err, lastErr)
			}
		}
		if attempt > 0 {
			d := retryDelay(p.Backoff, attempt-1, p.jitter.Uint64(), retryAfter)
			if err := sleepFor(ctx, d); err != nil {
				return fmt.Errorf("atlasapi: POST: cancelled during retry backoff: %w (last error: %v)", err, lastErr)
			}
		}
		chunk := p.buf
		if lim := p.effBatch(); len(chunk) > lim {
			chunk = chunk[:lim]
		}
		eb, err := encode(chunk)
		if err != nil {
			return err
		}
		res, err := p.postOnce(ctx, eb)
		if err != nil { // transport failure; nothing was consumed
			p.breaker.Fail(time.Now())
			lastErr = err
			retryAfter = 0
			if ctx.Err() != nil {
				return lastErr
			}
			if attempt++; attempt > retries {
				return lastErr
			}
			continue
		}
		if res.consumed > 0 {
			p.buf = p.buf[res.consumed:]
		}
		if res.status == http.StatusOK {
			p.breaker.OK()
			p.growBatch()
			return nil
		}
		lastErr = fmt.Errorf("atlasapi: POST %s: %s: %s", RouteStreamRecords, res.statusLine, res.msg)
		if res.status != http.StatusTooManyRequests && res.status < 500 {
			return lastErr // permanent: the payload or the request is wrong
		}
		p.breaker.Fail(time.Now())
		p.shrinkBatch()
		retryAfter = res.retryAfter
		if res.consumed > 0 {
			attempt = 0 // forward progress: keep going at fresh budget
			continue
		}
		if attempt++; attempt > retries {
			return lastErr
		}
	}
	return nil
}
