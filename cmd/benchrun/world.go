package main

import (
	"container/heap"
	"fmt"
	"path/filepath"
	"time"

	"dynaddr"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// worldScale sizes every workload's world: ~585 probes and ~1.1M
// records at the default population mix. It is the largest world whose
// full backfill, warm-ups and correctness references fit the per-run
// time budget on a 2-vCPU box (one backfill round takes a few seconds).
const worldScale = 0.5

// producerBatch is the StreamProducer default batch size: real producers
// POST 128-record batches, so the benchmark does too.
const producerBatch = 128

// traffic is a world's record stream, pre-encoded once: every record's
// wire frame lives in one arena, and batches are concatenations of
// consecutive frames of one connection's record sequence.
type traffic struct {
	dir    string // the saved dataset (atlasd -data DIR)
	ds     *dynaddr.Dataset
	probes int
	arena  []byte
	recs   []trafficRec // ReplayDataset (probe) order
}

// trafficRec locates one record's frame in the arena and carries the
// two keys the orders need.
type trafficRec struct {
	off, end int
	probe    atlasdata.ProbeID
	at       simclock.Time // record time; a meta record takes its probe's next record's time
}

func (t *traffic) frame(i int) []byte { return t.arena[t.recs[i].off:t.recs[i].end] }

// buildWorld generates the seed's world, saves it for atlasd -data, and
// encodes its record stream.
func buildWorld(seed uint64, dir string) (*traffic, error) {
	cfg := dynaddr.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = worldScale
	w, err := dynaddr.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	t, err := encodeWorld(w.Dataset)
	if err != nil {
		return nil, err
	}
	t.dir = filepath.Join(dir, "dataset")
	if err := dynaddr.SaveDataset(w.Dataset, t.dir); err != nil {
		return nil, fmt.Errorf("saving world: %w", err)
	}
	return t, nil
}

// encodeWorld frames a dataset's record stream in ReplayDataset order.
func encodeWorld(ds *dynaddr.Dataset) (*traffic, error) {
	enc := &frameRecorder{}
	if err := dynaddr.ReplayDataset(ds, enc); err != nil {
		return nil, fmt.Errorf("encoding world: %w", err)
	}
	t := &traffic{ds: ds, probes: len(ds.Probes), arena: enc.w.Bytes(), recs: enc.recs}
	// A meta record is due with its probe's first data record, so the
	// live-order merge sends it just before that probe's first session.
	for i := len(t.recs) - 2; i >= 0; i-- {
		if t.recs[i].at == metaTime && t.recs[i+1].probe == t.recs[i].probe {
			t.recs[i].at = t.recs[i+1].at
		}
	}
	return t, nil
}

// metaTime marks a meta record before buildWorld assigns its time.
const metaTime = simclock.Time(-1 << 62)

// frameRecorder is a RecordSink that appends every record's frame to one
// batch writer and remembers where each frame starts and ends.
type frameRecorder struct {
	w    wire.BatchWriter
	recs []trafficRec
}

func (r *frameRecorder) add(probe atlasdata.ProbeID, at simclock.Time, err error) error {
	if err != nil {
		return err
	}
	off := 0
	if n := len(r.recs); n > 0 {
		off = r.recs[n-1].end
	}
	r.recs = append(r.recs, trafficRec{off: off, end: r.w.Len(), probe: probe, at: at})
	return nil
}

func (r *frameRecorder) Meta(m atlasdata.ProbeMeta) error {
	return r.add(m.ID, metaTime, r.w.Meta(m))
}
func (r *frameRecorder) ConnLog(e atlasdata.ConnLogEntry) error {
	return r.add(e.Probe, e.Start, r.w.ConnLog(e))
}
func (r *frameRecorder) KRoot(k atlasdata.KRootRound) error {
	return r.add(k.Probe, k.Timestamp, r.w.KRoot(k))
}
func (r *frameRecorder) Uptime(u atlasdata.UptimeRecord) error {
	return r.add(u.Probe, u.Timestamp, r.w.Uptime(u))
}

// probeOrder is ReplayDataset's order: archive backfill, probe by probe.
func (t *traffic) probeOrder() []int {
	idx := make([]int, len(t.recs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// liveOrder k-way merges every probe's record sequence by record time —
// the order a controller sees records arrive in — keeping each probe's
// ReplayDataset order. Ties go to the lower probe ID.
func (t *traffic) liveOrder() []int {
	var h mergeHeap
	h.t = t
	for i := range t.recs {
		if i == 0 || t.recs[i].probe != t.recs[i-1].probe {
			h.heads = append(h.heads, mergeHead{next: i})
		}
	}
	for i := range h.heads {
		h.heads[i].end = len(t.recs)
		if i+1 < len(h.heads) {
			h.heads[i].end = h.heads[i+1].next
		}
	}
	heap.Init(&h)
	out := make([]int, 0, len(t.recs))
	for h.Len() > 0 {
		top := &h.heads[0]
		out = append(out, top.next)
		if top.next++; top.next == top.end {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// mergeHead is one probe's cursor into its contiguous run of records.
type mergeHead struct{ next, end int }

type mergeHeap struct {
	t     *traffic
	heads []mergeHead
}

func (h *mergeHeap) Len() int { return len(h.heads) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.t.recs[h.heads[i].next], h.t.recs[h.heads[j].next]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.probe < b.probe
}
func (h *mergeHeap) Swap(i, j int) { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *mergeHeap) Push(x any)    { h.heads = append(h.heads, x.(mergeHead)) }
func (h *mergeHeap) Pop() any {
	last := h.heads[len(h.heads)-1]
	h.heads = h.heads[:len(h.heads)-1]
	return last
}

// batch is one pre-encoded POST body.
type batch struct {
	body    []byte
	records int
}

// splitConns deals an order's records onto conns connections by
// stream.PartitionOf(probe, conns), so a probe never spans two
// connections and keeps its order on the one it uses.
func (t *traffic) splitConns(order []int, conns int) [][]int {
	out := make([][]int, conns)
	for _, i := range order {
		c := stream.PartitionOf(t.recs[i].probe, conns)
		out[c] = append(out[c], i)
	}
	return out
}

// batches frames a connection's record sequence into producerBatch-record
// bodies, byte-identical to what a default binary StreamProducer POSTs
// for the same records.
func (t *traffic) batches(seq []int) []batch {
	out := make([]batch, 0, (len(seq)+producerBatch-1)/producerBatch)
	for lo := 0; lo < len(seq); lo += producerBatch {
		hi := min(lo+producerBatch, len(seq))
		size := 0
		for _, i := range seq[lo:hi] {
			size += t.recs[i].end - t.recs[i].off
		}
		body := make([]byte, 0, size)
		for _, i := range seq[lo:hi] {
			body = append(body, t.frame(i)...)
		}
		out = append(out, batch{body: body, records: hi - lo})
	}
	return out
}

// distinctProbes counts the probes a record sequence touches.
func (t *traffic) distinctProbes(seq []int) int {
	seen := make(map[atlasdata.ProbeID]struct{})
	for _, i := range seq {
		seen[t.recs[i].probe] = struct{}{}
	}
	return len(seen)
}

// records sums a batch list's records.
func records(bs []batch) int {
	n := 0
	for _, b := range bs {
		n += b.records
	}
	return n
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
