package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
)

// feedPartitioned drives the serve-tier fixture through a set of
// partition-owning ingesters, routing each record to its owner by
// stream.PartitionOf — exactly what the cluster coordinator does over
// HTTP. ownerOf maps partition → ingester index.
func feedPartitioned(t testing.TB, ings []*stream.Ingester, ownerOf []int) {
	t.Helper()
	route := func(id atlasdata.ProbeID) *stream.Ingester {
		return ings[ownerOf[stream.PartitionOf(id, len(ownerOf))]]
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	countries := []string{"DE", "US", "JP", "BR", "ZA", "AU", "FR", "NL", "GB", "IT", "ES", "SE"}
	for i, cc := range countries {
		id := atlasdata.ProbeID(100 + i)
		ing := route(id)
		must(ing.Meta(atlasdata.ProbeMeta{ID: id, Country: cc, Version: atlasdata.V3, ConnectedDays: 150 + float64(i)}))
		a := fmt.Sprintf("10.0.%d.1", i)
		b := fmt.Sprintf("10.0.%d.2", i)
		must(ing.ConnLog(conn(id, at(0), at(20+i), a)))
		must(ing.ConnLog(conn(id, at(24+i), at(50), b)))
		// Rejected (overlaps the first session): consumed but not applied,
		// so it must still advance the cluster-summed Seq.
		must(ing.ConnLog(conn(id, at(1), at(2), a)))
		must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(21), Sent: 3, Success: 0, LTS: 600}))
		must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(22), Sent: 3, Success: 3, LTS: 30}))
		must(ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(30), Uptime: 30 * 3600}))
		must(ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(40), Uptime: 60}))
	}
}

// TestClusterVersionInvariance is the cluster counterpart of
// TestTierEquivalence: the same records, partitioned over 1, 2 and 5
// peers, must merge to the same cluster-summed stream.Version and the
// same rendered artifacts as a single node running all partitions —
// peer views round-tripped through both encodings they travel in
// (binary frames to the coordinator, JSON to anything else).
func TestClusterVersionInvariance(t *testing.T) {
	const total = 8
	ctx := context.Background()

	// Single-node reference: one ingester owning every partition.
	ref := stream.NewIngester(stream.Config{Shards: total, Pfx2AS: testStore(t), Analysis: true})
	defer ref.Close()
	feedPartitioned(t, []*stream.Ingester{ref}, make([]int, total))
	refSnap, err := ref.SnapshotContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refSummary, err := serve.RenderSummary(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	refAnalysisRes, refAnalysisVer, err := ref.AnalysisVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refAnalysis, err := serve.RenderAnalysis(refAnalysisRes)
	if err != nil {
		t.Fatal(err)
	}

	for _, peers := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			owned := make([][]int, peers)
			ownerOf := make([]int, total)
			for p := 0; p < total; p++ {
				owned[p%peers] = append(owned[p%peers], p)
				ownerOf[p] = p % peers
			}
			ings := make([]*stream.Ingester, peers)
			for i := range ings {
				ings[i] = stream.NewIngester(stream.Config{
					TotalPartitions: total,
					OwnedPartitions: owned[i],
					Pfx2AS:          testStore(t),
					Analysis:        true,
				})
				defer ings[i].Close()
			}
			feedPartitioned(t, ings, ownerOf)

			views := make(map[string][]*stream.PeerView)
			aviews := make(map[string][]*stream.AnalysisPeerView)
			for _, ing := range ings {
				pv, err := ing.PeerView(ctx)
				if err != nil {
					t.Fatal(err)
				}
				views["json"] = append(views["json"], jsonRoundTrip(t, pv, new(stream.PeerView)))
				views["binary"] = append(views["binary"], binaryRoundTrip(t, pv, stream.AppendPeerView, stream.DecodePeerView))
				av, err := ing.AnalysisPeerView(ctx)
				if err != nil {
					t.Fatal(err)
				}
				aviews["json"] = append(aviews["json"], jsonRoundTrip(t, av, new(stream.AnalysisPeerView)))
				aviews["binary"] = append(aviews["binary"], binaryRoundTrip(t, av, stream.AppendAnalysisPeerView, stream.DecodeAnalysisPeerView))
			}

			for _, codec := range []string{"json", "binary"} {
				merged := stream.MergePeerViews(views[codec], total)
				if merged.Version != refSnap.Version {
					t.Errorf("%s: cluster-summed version %+v, single-node %+v", codec, merged.Version, refSnap.Version)
				}
				sum, err := serve.RenderSummary(merged)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sum, refSummary) {
					t.Errorf("%s: merged summary differs from single-node render:\n%s\nvs\n%s", codec, sum, refSummary)
				}

				ares, aver := stream.MergeAnalysisPeerViews(aviews[codec])
				if aver != refAnalysisVer {
					t.Errorf("%s: merged analysis version %+v, single-node %+v", codec, aver, refAnalysisVer)
				}
				ab, err := serve.RenderAnalysis(ares)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ab, refAnalysis) {
					t.Errorf("%s: merged analysis differs from single-node render (lengths %d vs %d)", codec, len(ab), len(refAnalysis))
				}
			}
		})
	}
}

// binaryRoundTrip encodes v in the binary peer-view form and decodes it
// back, failing the test unless the decoded view marshals to exactly
// v's JSON.
func binaryRoundTrip[T any](t *testing.T, v *T, enc func([]byte, *T) []byte, dec func([]byte) (*T, error)) *T {
	t.Helper()
	out, err := dec(enc(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("binary round trip changed the view's JSON:\n%s\nvs\n%s", got, want)
	}
	return out
}

// jsonRoundTrip marshals v and decodes it into out, failing the test on
// any loss the type's JSON mapping can detect.
func jsonRoundTrip[T any](t *testing.T, v *T, out *T) *T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPartitionMove pins the rebalance primitive end to end at the
// stream level: release a partition from one in-memory ingester, adopt
// it on another, and the merged cluster state — version included — is
// unchanged.
func TestPartitionMove(t *testing.T) {
	const total = 4
	ctx := context.Background()

	a := stream.NewIngester(stream.Config{TotalPartitions: total, OwnedPartitions: []int{0, 1, 2}, Pfx2AS: testStore(t)})
	defer a.Close()
	b := stream.NewIngester(stream.Config{TotalPartitions: total, OwnedPartitions: []int{3}, Pfx2AS: testStore(t)})
	defer b.Close()
	ownerOf := []int{0, 0, 0, 1}
	feedPartitioned(t, []*stream.Ingester{a, b}, ownerOf)

	before := stream.MergePeerViews(collectViews(t, ctx, a, b), total)
	beforeBinary := stream.MergePeerViews(collectBinaryViews(t, ctx, a, b), total)

	st, err := a.ReleasePartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.OwnedPartitions(); len(got) != 2 {
		t.Fatalf("after release a owns %v", got)
	}
	// The state ships as JSON between peers; round-trip it like the
	// coordinator does.
	st = jsonRoundTrip(t, st, new(stream.PartitionState))
	if err := b.AdoptPartition(st); err != nil {
		t.Fatal(err)
	}
	if got := b.OwnedPartitions(); len(got) != 2 {
		t.Fatalf("after adopt b owns %v", got)
	}

	after := stream.MergePeerViews(collectViews(t, ctx, a, b), total)
	afterBinary := stream.MergePeerViews(collectBinaryViews(t, ctx, a, b), total)
	if after.Version != before.Version {
		t.Errorf("version changed across move: %+v → %+v", before.Version, after.Version)
	}
	sumBefore, err := serve.RenderSummary(before)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*stream.Snapshot{"after": after, "binary before": beforeBinary, "binary after": afterBinary} {
		sum, err := serve.RenderSummary(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum, sumBefore) {
			t.Errorf("%s: summary differs from the JSON views' before the move", name)
		}
	}

	// The moved partition keeps working on its new owner: duplicate of a
	// released-partition probe routes to b now, and a rejects it as
	// unowned.
	var moved atlasdata.ProbeID
	for i := 0; i < 12; i++ {
		id := atlasdata.ProbeID(100 + i)
		if stream.PartitionOf(id, total) == 1 {
			moved = id
			break
		}
	}
	if moved == 0 {
		t.Skip("fixture has no probe in partition 1")
	}
	if err := a.ConnLog(conn(moved, at(60), at(70), "10.0.200.1")); err == nil {
		t.Error("released owner still accepts the moved probe")
	}
	if err := b.ConnLog(conn(moved, at(60), at(70), "10.0.200.1")); err != nil {
		t.Errorf("new owner rejects the moved probe: %v", err)
	}
}

// collectBinaryViews is collectViews through the binary peer-view codec.
func collectBinaryViews(t *testing.T, ctx context.Context, ings ...*stream.Ingester) []*stream.PeerView {
	t.Helper()
	out := collectViews(t, ctx, ings...)
	for i, pv := range out {
		out[i] = binaryRoundTrip(t, pv, stream.AppendPeerView, stream.DecodePeerView)
	}
	return out
}

func collectViews(t *testing.T, ctx context.Context, ings ...*stream.Ingester) []*stream.PeerView {
	t.Helper()
	out := make([]*stream.PeerView, len(ings))
	for i, ing := range ings {
		pv, err := ing.PeerView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pv
	}
	return out
}
