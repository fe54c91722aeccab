package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"dynaddr/internal/pfx2as"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
)

// The correctness oracle: after every live workload quiesces, the
// server's summary, continents and analysis bytes and its ETag sequence
// must equal an in-process stream.Ingester fed the identical batches and
// rendered through serve.Render*.

// liveArtifacts are the three compared bodies plus the stream position.
type liveArtifacts struct {
	summary, continents, analysis []byte
	seq                           uint64
	asProbes                      map[uint32]int // analyzable probes per AS (reference only)
}

var artifactPaths = []string{"/api/v1/live/summary", "/api/v1/live/continents", "/api/v1/live/analysis"}

func (a *liveArtifacts) body(path string) []byte {
	switch path {
	case "/api/v1/live/summary":
		return a.summary
	case "/api/v1/live/continents":
		return a.continents
	}
	return a.analysis
}

// reference feeds the batches into an in-memory ingester with the given
// shard count and renders its artifacts.
func reference(pfx *pfx2as.SnapshotStore, shards int, conns ...[]batch) (*liveArtifacts, error) {
	ctx := context.Background()
	ing := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: pfx, Analysis: true})
	for _, bs := range conns {
		for _, b := range bs {
			if _, err := ing.IngestWire(ctx, b.body); err != nil {
				ing.Close()
				return nil, fmt.Errorf("reference ingest: %w", err)
			}
		}
	}
	if err := ing.Close(); err != nil {
		return nil, err
	}
	snap := ing.Snapshot()
	ref := &liveArtifacts{seq: snap.Version.Seq, asProbes: map[uint32]int{}}
	for asn, agg := range snap.PerAS {
		ref.asProbes[asn] = agg.Probes
	}
	var err error
	if ref.summary, err = serve.RenderSummary(snap); err != nil {
		return nil, err
	}
	if ref.continents, err = serve.RenderContinents(snap); err != nil {
		return nil, err
	}
	res, _, err := ing.AnalysisVersioned(ctx)
	if err != nil {
		return nil, err
	}
	if ref.analysis, err = serve.RenderAnalysis(res); err != nil {
		return nil, err
	}
	if snap.Records.Rejected != 0 {
		return nil, fmt.Errorf("reference rejected %d records", snap.Records.Rejected)
	}
	return ref, nil
}

// quiesce waits until the server's summary ETag reaches seq (every sent
// record applied and published) and then captures the artifacts.
func quiesce(ctx context.Context, c *http.Client, base string, seq uint64) (*liveArtifacts, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, etag, err := fetch(ctx, c, base+"/api/v1/live/summary")
		if err != nil {
			return nil, err
		}
		if got, ok := etagSeq(etag); ok && got >= seq {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server stuck at ETag %s, want sequence %d", etag, seq)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := &liveArtifacts{}
	for _, path := range artifactPaths {
		body, etag, err := fetch(ctx, c, base+path)
		if err != nil {
			return nil, err
		}
		s, ok := etagSeq(etag)
		if !ok {
			return nil, fmt.Errorf("GET %s: bad ETag %q", path, etag)
		}
		if path == "/api/v1/live/summary" {
			got.seq = s
			got.summary = body
		} else if path == "/api/v1/live/continents" {
			got.continents = body
		} else {
			got.analysis = body
		}
	}
	return got, nil
}

// compareArtifacts returns one failed check per differing artifact.
func compareArtifacts(what string, got, want *liveArtifacts) []string {
	var bad []string
	for _, path := range artifactPaths {
		if g, w := got.body(path), want.body(path); !bytes.Equal(g, w) {
			bad = append(bad, fmt.Sprintf("%s: %s differs (%d vs %d bytes)", what, path, len(g), len(w)))
		}
	}
	if got.seq != want.seq {
		bad = append(bad, fmt.Sprintf("%s: ETag sequence %d, want %d", what, got.seq, want.seq))
	}
	return bad
}
