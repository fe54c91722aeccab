package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// Peer names one atlasd peer: its cluster node ID and base URL
// ("http://host:port").
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config parameterises a Coordinator.
type Config struct {
	// Peers is the initial membership. IDs must be unique and non-empty;
	// URLs must be absolute.
	Peers []Peer
	// TotalPartitions is the cluster-wide partition count. Every peer
	// must run with the same value (-partitions-total).
	TotalPartitions int
	// Client issues the inter-peer requests; nil means a client with a
	// 30-second timeout. Wrap its Transport in faultinject.Transport to
	// chaos-test inter-peer behaviour.
	Client *http.Client
	// Retries is how many times a failed per-peer forward is retried
	// before the batch fails; zero means 2.
	Retries int
	// Backoff spaces forward retries (Retry-After hints win, capped at
	// the policy max); the zero value is the package default.
	Backoff backoff.Policy
	// RetryAfter is the pacing hint shed responses carry; zero means 1s.
	RetryAfter time.Duration
	// MaxBatchBytes bounds an ingest batch body; zero means the API
	// default (16 MiB).
	MaxBatchBytes int64
	// Logf receives operational logging; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Coordinator is the cluster front door, an http.Handler serving the
// same API surface a single-node atlasd does:
//
//	POST /api/v2/stream/records   split by probe owner, forwarded per peer
//	GET  /api/v1/live/summary     scatter-gather merge over all peers
//	GET  /api/v1/live/continents  scatter-gather merge
//	GET  /api/v1/live/analysis    scatter-gather merge + query-time Compute
//	GET  /api/v1/live/as/{asn}    scatter-gather merge, one AS
//	GET  /api/v1/live/cursor      proxied to the probe's owner peer
//	GET  /api/v1/cluster/status   one row per peer (ownership, version, state)
//	POST /api/v1/cluster/members  rebalance to a new peer set
//
// Queries shed with 503 + Retry-After whenever a complete, exactly-
// once-covered merge is impossible — a peer unreachable, partition
// coverage inconsistent, or a rebalance in flight. A partial merge is
// never served: the merged artifact is either byte-identical to the
// single-node fold over every partition, or absent.
type Coordinator struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	logf   func(format string, args ...any)
	jitter backoff.Jitter

	mu        sync.RWMutex
	peers     map[string]*peerConn // by node ID
	order     []string             // sorted node IDs, forward determinism
	assign    []string             // partition → node ID
	balancing bool
}

// peerConn is a peer plus its breaker: consecutive forward/fan-out
// failures open the breaker and fail calls fast until the cooldown.
type peerConn struct {
	peer    Peer
	breaker backoff.Breaker
}

// New builds a Coordinator over the initial membership.
func New(cfg Config) (*Coordinator, error) {
	if cfg.TotalPartitions <= 0 {
		return nil, fmt.Errorf("cluster: coordinator needs a positive partition count")
	}
	ids := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.ID)
		}
		ids = append(ids, p.ID)
	}
	ring, err := NewRing(ids, cfg.TotalPartitions)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		mux:    http.NewServeMux(),
		logf:   cfg.Logf,
		peers:  make(map[string]*peerConn, len(cfg.Peers)),
		assign: ring.Assignments(),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	for _, p := range cfg.Peers {
		c.peers[p.ID] = &peerConn{peer: p}
	}
	c.order = ring.Nodes()
	c.mux.HandleFunc(atlasapi.RouteStreamRecords, c.postRecords)
	c.mux.HandleFunc("/api/v1/live/summary", c.summary)
	c.mux.HandleFunc("/api/v1/live/continents", c.continents)
	c.mux.HandleFunc("/api/v1/live/analysis", c.analysis)
	c.mux.HandleFunc("/api/v1/live/as/", c.asDetail)
	c.mux.HandleFunc("/api/v1/live/cursor", c.cursor)
	c.mux.HandleFunc("/api/v1/cluster/status", c.status)
	c.mux.HandleFunc("/api/v1/cluster/members", c.members)
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

func (c *Coordinator) retryAfter() time.Duration {
	if c.cfg.RetryAfter > 0 {
		return c.cfg.RetryAfter
	}
	return atlasapi.DefaultRetryAfter
}

func (c *Coordinator) maxBatch() int64 {
	if c.cfg.MaxBatchBytes > 0 {
		return c.cfg.MaxBatchBytes
	}
	return atlasapi.DefaultMaxBatchBytes
}

// envelope mirrors the peer API's JSON error shape, so a client cannot
// tell a coordinator's refusal from a single node's.
type envelope struct {
	Error    string `json:"error"`
	Status   int    `json:"status"`
	Accepted int    `json:"accepted,omitempty"`
}

func apiError(w http.ResponseWriter, code int, msg string) {
	writeEnvelope(w, envelope{Error: msg, Status: code})
}

// writeEnvelope answers with env, under env.Status.
func writeEnvelope(w http.ResponseWriter, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(env.Status)
	json.NewEncoder(w).Encode(env) //nolint:errcheck // headers are gone
}

// shed answers 503 + Retry-After: the cluster cannot produce a complete
// answer right now, come back.
func (c *Coordinator) shed(w http.ResponseWriter, msg string, accepted int) {
	secs := int64((c.retryAfter() + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeEnvelope(w, envelope{Error: msg, Status: http.StatusServiceUnavailable, Accepted: accepted})
}

// snapshotPeers captures the current membership for one operation.
// Fan-outs refuse to run mid-rebalance: partition ownership is in
// motion and a merge could double- or under-count a moving partition.
func (c *Coordinator) snapshotPeers() ([]*peerConn, []string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.balancing {
		return nil, nil, errors.New("rebalance in progress")
	}
	out := make([]*peerConn, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.peers[id])
	}
	return out, append([]string(nil), c.assign...), nil
}

// ---- ingest: split by owner, forward per peer ----

// postRecords splits a v2 batch by partition owner using the zero-copy
// frame iterator (binary) or line scanner (NDJSON) and forwards each
// peer's sub-batch over the same v2 endpoint, breaker-guarded and
// retried with Retry-After pacing. The response preserves the v2
// partial-accept contract: "accepted" is the length of the batch
// PREFIX that is durably consumed, so an at-least-once producer can
// trim and re-send the rest; records of that prefix owned by peers
// that succeeded are never re-sent, and a re-sent suffix record that
// did land earlier is rejected by per-probe time order on its owner.
// A batch that breaks off early, at a corrupt frame, is answered as a
// single node answers it: the records before the break are forwarded,
// and the 400 carries their consumed prefix.
func (c *Coordinator) postRecords(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST records")
		return
	}
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		apiError(w, http.StatusUnsupportedMediaType, "bad Content-Type: "+err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.maxBatch()))
	if err != nil {
		apiError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	peers, assign, err := c.snapshotPeers()
	if err != nil {
		c.shed(w, err.Error(), 0)
		return
	}
	byID := make(map[string]*peerConn, len(peers))
	for _, pc := range peers {
		byID[pc.peer.ID] = pc
	}

	var split map[string]*subBatch
	var order []int // frame index → owner position, for prefix accounting
	var owners []string
	var splitErr error // what ended the batch before its last byte, if anything did
	switch ct {
	case atlasapi.ContentTypeBinary:
		split, owners, order, splitErr = splitBinary(body, assign)
	case atlasapi.ContentTypeNDJSON, "application/json":
		split, owners, order, splitErr = splitNDJSON(body, assign)
	default:
		apiError(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported Content-Type %q (want %s or %s)", ct, atlasapi.ContentTypeBinary, atlasapi.ContentTypeNDJSON))
		return
	}

	// Forward sub-batches in sorted owner order (deterministic, and the
	// per-probe record order inside each sub-batch is the batch order).
	consumed := make(map[string]int, len(split))
	failed := map[string]string{}
	quarantined := 0
	for _, id := range owners {
		sb := split[id]
		pc := byID[id]
		if pc == nil {
			failed[id] = fmt.Sprintf("partition owner %q not in membership", id)
			continue
		}
		n, q, ferr := c.forward(r.Context(), pc, ct, sb.buf.Bytes(), sb.records)
		consumed[id] = n
		quarantined += q
		if ferr != nil {
			failed[id] = ferr.Error()
		}
	}

	// The consumed prefix: walk the batch in order, stop at the first
	// record its owner did not consume.
	prefix := 0
	seen := make(map[string]int, len(split))
	for _, idx := range order {
		id := owners[idx]
		if seen[id] >= consumed[id] {
			break
		}
		seen[id]++
		prefix++
	}

	if len(failed) > 0 {
		parts := make([]string, 0, len(failed))
		for id, msg := range failed {
			parts = append(parts, id+": "+msg)
		}
		sort.Strings(parts)
		c.shed(w, "forwarding failed ("+strings.Join(parts, "; ")+")", prefix)
		return
	}
	if splitErr != nil {
		writeEnvelope(w, envelope{Error: splitErr.Error(), Status: http.StatusBadRequest, Accepted: prefix})
		return
	}
	// A fully consumed batch answers like a single node: routed records
	// in "accepted", dead-lettered ones in "quarantined".
	w.Header().Set("Content-Type", "application/json")
	if quarantined > 0 {
		fmt.Fprintf(w, "{\"accepted\": %d, \"quarantined\": %d}\n", prefix-quarantined, quarantined)
		return
	}
	fmt.Fprintf(w, "{\"accepted\": %d}\n", prefix)
}

// subBatch is one peer's slice of an ingest batch.
type subBatch struct {
	buf     bytes.Buffer
	records int
}

// splitBinary partitions a framed binary batch by probe owner. Frames
// are copied verbatim (header + checksum included) into per-owner
// buffers; only the 5-byte kind+probe prefix of each payload is read.
// A frame whose probe cannot be read goes to the owner of probe 0's
// partition, where a single node would quarantine it. Returns the owner
// list in sorted order and, per original frame, the index into that
// list. At a corrupt frame it returns the split of the frames before it,
// with the error.
func splitBinary(body []byte, assign []string) (map[string]*subBatch, []string, []int, error) {
	split := map[string]*subBatch{}
	var ownerOf []string
	it := wire.Frames(body)
	for {
		payload, done, err := it.Next()
		if done {
			break
		}
		if err != nil {
			return finishSplit(split, ownerOf, fmt.Errorf("frame %d: %v", len(ownerOf), err))
		}
		probe, _ := wire.PayloadProbe(payload) // 0 when unreadable
		owner := assign[stream.PartitionOf(probe, len(assign))]
		sb := split[owner]
		if sb == nil {
			sb = &subBatch{}
			split[owner] = sb
		}
		b := sb.buf.AvailableBuffer()
		sb.buf.Write(wire.AppendFrame(b, payload))
		sb.records++
		ownerOf = append(ownerOf, owner)
	}
	return finishSplit(split, ownerOf, nil)
}

// splitNDJSON partitions an NDJSON batch by probe owner, reading only
// the "probe" field of each line. Like splitBinary it routes a line
// whose probe cannot be read by probe 0, and returns the split of the
// lines before a read error with it.
func splitNDJSON(body []byte, assign []string) (map[string]*subBatch, []string, []int, error) {
	split := map[string]*subBatch{}
	var ownerOf []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Probe atlasdata.ProbeID `json:"probe"`
		}
		if json.Unmarshal(raw, &probe) != nil {
			probe.Probe = 0
		}
		owner := assign[stream.PartitionOf(probe.Probe, len(assign))]
		sb := split[owner]
		if sb == nil {
			sb = &subBatch{}
			split[owner] = sb
		}
		sb.buf.Write(raw)
		sb.buf.WriteByte('\n')
		sb.records++
		ownerOf = append(ownerOf, owner)
	}
	return finishSplit(split, ownerOf, sc.Err())
}

// finishSplit computes the sorted owner list and the per-record owner
// index used for prefix accounting, and passes on err, the error that
// ended the batch early, if any.
func finishSplit(split map[string]*subBatch, ownerOf []string, err error) (map[string]*subBatch, []string, []int, error) {
	owners := make([]string, 0, len(split))
	for id := range split {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	pos := make(map[string]int, len(owners))
	for i, id := range owners {
		pos[id] = i
	}
	order := make([]int, len(ownerOf))
	for i, id := range ownerOf {
		order[i] = pos[id]
	}
	return split, owners, order, err
}

// forward delivers one sub-batch to a peer, breaker-guarded, honouring
// Retry-After pacing and retrying transient failures. Returns how many
// records the peer consumed (routed or quarantined) and the quarantine
// count on success.
func (c *Coordinator) forward(ctx context.Context, pc *peerConn, ct string, body []byte, records int) (consumed, quarantined int, err error) {
	retries := c.cfg.Retries
	if retries <= 0 {
		retries = 2
	}
	var retryHint time.Duration
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if wait := pc.breaker.Wait(time.Now()); wait > 0 {
			return 0, 0, fmt.Errorf("breaker open for %s (cooling down %s): %v", pc.peer.ID, wait.Round(time.Millisecond), lastErr)
		}
		if attempt > 0 {
			d := retryHint
			if d <= 0 {
				d = c.cfg.Backoff.Delay(attempt-1, c.jitterWord())
			} else if max := c.cfg.Backoff.MaxDelay(); d > max {
				d = max
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return 0, 0, ctx.Err()
			}
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, pc.peer.URL+atlasapi.RouteStreamRecords, bytes.NewReader(body))
		if rerr != nil {
			return 0, 0, rerr
		}
		req.Header.Set("Content-Type", ct)
		resp, rerr := c.client.Do(req)
		if rerr != nil {
			pc.breaker.Fail(time.Now())
			lastErr = rerr
			retryHint = 0
			continue
		}
		rb, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			pc.breaker.Fail(time.Now())
			lastErr = rerr
			retryHint = 0
			continue
		}
		if resp.StatusCode == http.StatusOK {
			pc.breaker.OK()
			var acc struct {
				Accepted    int `json:"accepted"`
				Quarantined int `json:"quarantined"`
			}
			if jerr := json.Unmarshal(rb, &acc); jerr != nil {
				return 0, 0, fmt.Errorf("peer %s: bad accept envelope: %v", pc.peer.ID, jerr)
			}
			consumed = acc.Accepted + acc.Quarantined
			if consumed > records {
				consumed = records
			}
			return consumed, acc.Quarantined, nil
		}
		// Partial accept: the peer consumed a prefix before failing.
		var env envelope
		if json.Unmarshal(rb, &env) == nil && env.Accepted > 0 {
			if env.Accepted > records {
				env.Accepted = records
			}
			consumed = env.Accepted
			// The consumed prefix is gone from our buffer's concern only if
			// we also trim; re-sending it is safe (per-probe time order
			// rejects duplicates) so keep the retry simple: resend whole.
		}
		lastErr = fmt.Errorf("peer %s: %s: %s", pc.peer.ID, resp.Status, strings.TrimSpace(string(rb)))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			pc.breaker.Fail(time.Now())
			retryHint = atlasapi.ParseRetryAfter(resp)
			continue
		}
		// Permanent (4xx): the sub-batch is malformed or misrouted.
		return consumed, 0, lastErr
	}
	return consumed, 0, lastErr
}

func (c *Coordinator) jitterWord() uint64 { return c.jitter.Uint64() }

// ---- scatter-gather reads ----

// fanout fetches path from every peer as a T (decoding binary bodies
// with binary, as fetch does) and validates exact partition coverage:
// each partition owned by exactly one responding peer, every peer
// agreeing on the partition count. coverage reads a view's partition
// count and owned partitions.
func fanout[T any](ctx context.Context, c *Coordinator, path string, binary func([]byte) (*T, error), coverage func(*T) (total int, parts []int)) ([]*T, error) {
	peers, _, err := c.snapshotPeers()
	if err != nil {
		return nil, err
	}
	views := make([]*T, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, pc := range peers {
		wg.Add(1)
		go func(i int, pc *peerConn) {
			defer wg.Done()
			views[i], errs[i] = fetch(ctx, c, pc, path, binary)
		}(i, pc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("peer %s: %w", peers[i].peer.ID, err)
		}
	}
	covered := make([]string, c.cfg.TotalPartitions)
	for i, v := range views {
		id := peers[i].peer.ID
		total, parts := coverage(v)
		if total != c.cfg.TotalPartitions {
			return nil, fmt.Errorf("peer %s runs %d partitions, cluster runs %d", id, total, c.cfg.TotalPartitions)
		}
		for _, p := range parts {
			if p < 0 || p >= len(covered) {
				return nil, fmt.Errorf("peer %s claims partition %d outside [0, %d)", id, p, len(covered))
			}
			if covered[p] != "" {
				return nil, fmt.Errorf("partition %d claimed by both %s and %s", p, covered[p], id)
			}
			covered[p] = id
		}
	}
	for p, id := range covered {
		if id == "" {
			return nil, fmt.Errorf("partition %d unowned", p)
		}
	}
	return views, nil
}

// errPeerStatus carries a peer's non-200 answer through the fan-out.
type errPeerStatus struct {
	code int
	body string
}

func (e *errPeerStatus) Error() string { return fmt.Sprintf("%d: %s", e.code, e.body) }

// fetch GETs one peer endpoint, breaker-guarded, and decodes T. With
// a nil binary the body is JSON. Otherwise the request asks for
// ContentTypeBinary and a response labelled so is read whole and
// decoded by binary; any other response is still read as JSON, so a
// peer that ignores Accept keeps merging. A body that fails to decode
// counts against the peer's breaker like a failed request.
func fetch[T any](ctx context.Context, c *Coordinator, pc *peerConn, path string, binary func([]byte) (*T, error)) (*T, error) {
	if wait := pc.breaker.Wait(time.Now()); wait > 0 {
		return nil, fmt.Errorf("breaker open (cooling down %s)", wait.Round(time.Millisecond))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.peer.URL+path, nil)
	if err != nil {
		return nil, err
	}
	if binary != nil {
		req.Header.Set("Accept", atlasapi.ContentTypeBinary)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		pc.breaker.Fail(time.Now())
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode >= 500 {
			pc.breaker.Fail(time.Now())
		}
		return nil, &errPeerStatus{code: resp.StatusCode, body: strings.TrimSpace(string(body))}
	}
	v, err := decodeBody(resp, binary)
	if err != nil {
		pc.breaker.Fail(time.Now())
		return nil, err
	}
	pc.breaker.OK()
	return v, nil
}

// decodeBody decodes a peer's 200 body by its Content-Type.
func decodeBody[T any](resp *http.Response, binary func([]byte) (*T, error)) (*T, error) {
	mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if binary == nil || mt != atlasapi.ContentTypeBinary {
		var v T
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return nil, err
		}
		return &v, nil
	}
	// Size the buffer from Content-Length (bounded, so a lying header
	// cannot reserve memory the body never sends), plus MinRead so
	// ReadFrom sees EOF without growing it.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxBodyHint)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return binary(buf.Bytes())
}

// maxBodyHint caps how much of a peer's declared Content-Length is
// reserved before the body arrives.
const maxBodyHint = 64 << 20

// merged produces the cluster-wide snapshot, or sheds.
func (c *Coordinator) merged(w http.ResponseWriter, r *http.Request) *stream.Snapshot {
	views, err := fanout(r.Context(), c, atlasapi.RouteClusterView, stream.DecodePeerView, func(v *stream.PeerView) (int, []int) {
		return v.TotalPartitions, v.Partitions
	})
	if err != nil {
		c.shed(w, "cluster snapshot unavailable: "+err.Error(), 0)
		return nil
	}
	return stream.MergePeerViews(views, c.cfg.TotalPartitions)
}

// writeArtifact answers a rendered artifact under the same
// conditional-GET discipline the single-node server uses: ETag from the
// cluster-summed version, If-None-Match → 304, Cache-Control: no-cache.
func writeArtifact(w http.ResponseWriter, r *http.Request, etag string, body []byte) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if serve.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

func (c *Coordinator) summary(w http.ResponseWriter, r *http.Request) {
	snap := c.merged(w, r)
	if snap == nil {
		return
	}
	body, err := serve.RenderSummary(snap)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal server error")
		c.logf("cluster: render summary: %v", err)
		return
	}
	writeArtifact(w, r, serve.ETag(snap.Version), body)
}

func (c *Coordinator) continents(w http.ResponseWriter, r *http.Request) {
	snap := c.merged(w, r)
	if snap == nil {
		return
	}
	body, err := serve.RenderContinents(snap)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal server error")
		c.logf("cluster: render continents: %v", err)
		return
	}
	writeArtifact(w, r, serve.ETag(snap.Version), body)
}

func (c *Coordinator) analysis(w http.ResponseWriter, r *http.Request) {
	views, err := fanout(r.Context(), c, atlasapi.RouteClusterAnalysisView, stream.DecodeAnalysisPeerView, func(v *stream.AnalysisPeerView) (int, []int) {
		return v.TotalPartitions, v.Partitions
	})
	if err != nil {
		var ps *errPeerStatus
		if errors.As(err, &ps) && ps.code == http.StatusNotFound {
			apiError(w, http.StatusNotFound, stream.ErrAnalysisDisabled.Error())
			return
		}
		c.shed(w, "cluster analysis unavailable: "+err.Error(), 0)
		return
	}
	res, ver := stream.MergeAnalysisPeerViews(views)
	body, err := serve.RenderAnalysis(res)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal server error")
		c.logf("cluster: render analysis: %v", err)
		return
	}
	writeArtifact(w, r, serve.ETag(ver), body)
}

func (c *Coordinator) asDetail(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/v1/live/as/"), "/")
	asn, err := strconv.ParseUint(rest, 10, 32)
	if err != nil || asn == 0 {
		apiError(w, http.StatusBadRequest, fmt.Sprintf("bad asn %q", rest))
		return
	}
	snap := c.merged(w, r)
	if snap == nil {
		return
	}
	agg := snap.AS(uint32(asn))
	if agg == nil {
		apiError(w, http.StatusNotFound, fmt.Sprintf("no analyzable probes in AS%d", asn))
		return
	}
	body, err := serve.RenderASDetail(agg)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal server error")
		c.logf("cluster: render as: %v", err)
		return
	}
	writeArtifact(w, r, serve.ETag(snap.Version), body)
}

// cursor proxies the resume-cursor query to the probe's owner peer:
// cursors are shard-local state and must stay authoritative, exactly as
// single-node (never cached, never merged).
func (c *Coordinator) cursor(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("probe")
	id, err := strconv.Atoi(idStr)
	if err != nil || id <= 0 {
		apiError(w, http.StatusBadRequest, fmt.Sprintf("bad probe id %q", idStr))
		return
	}
	peers, assign, err := c.snapshotPeers()
	if err != nil {
		c.shed(w, err.Error(), 0)
		return
	}
	owner := assign[stream.PartitionOf(atlasdata.ProbeID(id), len(assign))]
	var pc *peerConn
	for _, p := range peers {
		if p.peer.ID == owner {
			pc = p
			break
		}
	}
	if pc == nil {
		c.shed(w, fmt.Sprintf("partition owner %q not in membership", owner), 0)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, pc.peer.URL+"/api/v1/live/cursor?probe="+strconv.Itoa(id), nil)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal server error")
		return
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		pc.breaker.Fail(time.Now())
		c.shed(w, fmt.Sprintf("peer %s unreachable: %v", owner, err), 0)
		return
	}
	defer resp.Body.Close()
	pc.breaker.OK()
	for _, h := range []string{"ETag", "Cache-Control", "Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client gone; nothing to do
}

// ---- membership & status ----

// PeerStatus is one row of /api/v1/cluster/status.
type PeerStatus struct {
	ID         string         `json:"id"`
	URL        string         `json:"url"`
	State      string         `json:"state"` // ready | starting | degraded | down
	Ready      bool           `json:"ready"`
	Partitions []int          `json:"partitions"`
	Version    stream.Version `json:"version"`
	Error      string         `json:"error,omitempty"`
}

// StatusReply is the /api/v1/cluster/status envelope.
type StatusReply struct {
	TotalPartitions int          `json:"total_partitions"`
	Rebalancing     bool         `json:"rebalancing"`
	Peers           []PeerStatus `json:"peers"`
}

func (c *Coordinator) status(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	c.mu.RLock()
	balancing := c.balancing
	peers := make([]*peerConn, 0, len(c.order))
	for _, id := range c.order {
		peers = append(peers, c.peers[id])
	}
	c.mu.RUnlock()

	reply := StatusReply{TotalPartitions: c.cfg.TotalPartitions, Rebalancing: balancing, Peers: make([]PeerStatus, len(peers))}
	var wg sync.WaitGroup
	for i, pc := range peers {
		wg.Add(1)
		go func(i int, pc *peerConn) {
			defer wg.Done()
			reply.Peers[i] = c.peerStatus(r.Context(), pc)
		}(i, pc)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(reply) //nolint:errcheck // client gone
}

// peerStatus scrapes one peer's /readyz and /api/v1/cluster/info.
func (c *Coordinator) peerStatus(ctx context.Context, pc *peerConn) PeerStatus {
	st := PeerStatus{ID: pc.peer.ID, URL: pc.peer.URL, State: "down", Partitions: []int{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.peer.URL+"/readyz", nil)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	resp, err := c.client.Do(req)
	if err != nil {
		st.Error = err.Error()
		return st
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	var ready struct {
		Error          string `json:"error"`
		DegradedShards int    `json:"degraded_shards"`
	}
	json.Unmarshal(body, &ready) //nolint:errcheck // state derives from status code when opaque
	switch {
	case resp.StatusCode == http.StatusOK:
		st.State, st.Ready = "ready", true
	case ready.DegradedShards > 0:
		st.State = "degraded"
		st.Error = ready.Error
	default:
		st.State = "starting"
		st.Error = ready.Error
	}
	info, err := fetch[atlasapi.ClusterInfo](ctx, c, pc, atlasapi.RouteClusterInfo, nil)
	if err != nil {
		if st.Error == "" {
			st.Error = err.Error()
		}
		return st
	}
	st.Partitions = info.Partitions
	if st.Partitions == nil {
		st.Partitions = []int{}
	}
	st.Version = info.Version
	return st
}

// membersRequest is the POST /api/v1/cluster/members body: the desired
// new membership (complete list, not a delta).
type membersRequest struct {
	Peers []Peer `json:"peers"`
}

// membersReply reports what the rebalance moved.
type membersReply struct {
	Moves       []Move   `json:"moves"`
	Assignments []string `json:"assignments"`
}

// members rebalances to a new peer set: compute the new rendezvous
// assignment, then for every partition changing owner, release it from
// the current owner and adopt it on the new one — checkpoint + WAL tail
// shipped through the coordinator. Queries shed while the move is in
// flight (ownership is ambiguous), and on any failure the assignment
// keeps its last consistent value: the failed partition stays where it
// was released-from or adopted-to, and the next fan-out's coverage
// check decides whether the cluster is servable.
func (c *Coordinator) members(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req membersRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		apiError(w, http.StatusBadRequest, "bad members body: "+err.Error())
		return
	}
	ids := make([]string, 0, len(req.Peers))
	newPeers := make(map[string]*peerConn, len(req.Peers))
	for _, p := range req.Peers {
		if p.URL == "" {
			apiError(w, http.StatusBadRequest, fmt.Sprintf("peer %q has no URL", p.ID))
			return
		}
		ids = append(ids, p.ID)
		newPeers[p.ID] = &peerConn{peer: p}
	}
	newRing, err := NewRing(ids, c.cfg.TotalPartitions)
	if err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	if c.balancing {
		c.mu.Unlock()
		apiError(w, http.StatusConflict, "rebalance already in progress")
		return
	}
	c.balancing = true
	oldAssign := append([]string(nil), c.assign...)
	// Keep old conns (breaker history) for peers that stay; merge in the
	// new ones now so releases from departing peers and adopts on
	// arriving peers both resolve.
	for id, pc := range newPeers {
		if old, ok := c.peers[id]; ok {
			// Keep the surviving peer's conn (its breaker history), just
			// refresh the address.
			old.peer = pc.peer
			newPeers[id] = old
		}
		c.peers[id] = newPeers[id]
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.balancing = false
		c.mu.Unlock()
	}()

	var moves []Move
	for p, from := range oldAssign {
		if to := newRing.Owner(p); to != from {
			moves = append(moves, Move{Partition: p, From: from, To: to})
		}
	}

	done := make([]Move, 0, len(moves))
	for _, mv := range moves {
		if err := c.movePartition(r.Context(), mv); err != nil {
			c.logf("cluster: rebalance move %d %s→%s failed: %v", mv.Partition, mv.From, mv.To, err)
			c.shed(w, fmt.Sprintf("rebalance failed at partition %d (%s→%s): %v; %d/%d moves applied",
				mv.Partition, mv.From, mv.To, err, len(done), len(moves)), 0)
			return
		}
		done = append(done, mv)
		c.mu.Lock()
		c.assign[mv.Partition] = mv.To
		c.mu.Unlock()
	}

	// Membership is now the new set: drop departed peers, fix the order.
	c.mu.Lock()
	c.peers = newPeers
	sort.Strings(ids)
	c.order = ids
	c.assign = newRing.Assignments()
	assignments := append([]string(nil), c.assign...)
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(membersReply{Moves: done, Assignments: assignments}) //nolint:errcheck // client gone
}

// movePartition ships one partition: release on the old owner, adopt on
// the new one. The released state travels through the coordinator
// verbatim (opaque JSON), so the coordinator needs no knowledge of the
// checkpoint format.
func (c *Coordinator) movePartition(ctx context.Context, mv Move) error {
	c.mu.RLock()
	from, to := c.peers[mv.From], c.peers[mv.To]
	c.mu.RUnlock()
	if from == nil {
		return fmt.Errorf("releasing peer %q not in membership", mv.From)
	}
	if to == nil {
		return fmt.Errorf("adopting peer %q not in membership", mv.To)
	}

	relBody, err := json.Marshal(map[string]int{"partition": mv.Partition})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, from.peer.URL+atlasapi.RouteClusterRelease, bytes.NewReader(relBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("release: %w", err)
	}
	state, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("release: reading state: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("release: %s: %s", resp.Status, strings.TrimSpace(string(state)))
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodPost, to.peer.URL+atlasapi.RouteClusterAdopt, bytes.NewReader(state))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = c.client.Do(req)
	if err != nil {
		return fmt.Errorf("adopt: %w", err)
	}
	ab, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("adopt: %s: %s", resp.Status, strings.TrimSpace(string(ab)))
	}
	return nil
}
