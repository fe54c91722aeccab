package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/serve"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// routeSink sends each record to the ingester owning its probe's
// partition, as the coordinator does over HTTP.
type routeSink struct {
	ings    []*stream.Ingester
	ownerOf []int
}

func (s routeSink) to(id atlasdata.ProbeID) *stream.Ingester {
	return s.ings[s.ownerOf[stream.PartitionOf(id, len(s.ownerOf))]]
}

func (s routeSink) Meta(m atlasdata.ProbeMeta) error       { return s.to(m.ID).Meta(m) }
func (s routeSink) ConnLog(e atlasdata.ConnLogEntry) error { return s.to(e.Probe).ConnLog(e) }
func (s routeSink) KRoot(k atlasdata.KRootRound) error     { return s.to(k.Probe).KRoot(k) }
func (s routeSink) Uptime(u atlasdata.UptimeRecord) error  { return s.to(u.Probe).Uptime(u) }

// TestBinaryViewsOverWorld runs a generated world's peer views through
// the binary codec: each decoded view must marshal to exactly the
// original's JSON, the merges must render the single-node bytes, and
// the frames must be much smaller than the JSON they replace.
func TestBinaryViewsOverWorld(t *testing.T) {
	const total, peers = 12, 3
	ctx := context.Background()
	ds := recoverWorld(t, 3)

	ref := stream.NewIngester(stream.Config{Shards: total, Pfx2AS: ds.Pfx2AS, Analysis: true})
	defer ref.Close()
	if err := sim.ReplayDataset(ds, ref); err != nil {
		t.Fatal(err)
	}
	refSnap, err := ref.SnapshotContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refSummary, err := serve.RenderSummary(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	refRes, _, err := ref.AnalysisVersioned(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refAnalysis, err := serve.RenderAnalysis(refRes)
	if err != nil {
		t.Fatal(err)
	}

	owned := make([][]int, peers)
	ownerOf := make([]int, total)
	for p := range ownerOf {
		ownerOf[p] = p % peers
		owned[p%peers] = append(owned[p%peers], p)
	}
	ings := make([]*stream.Ingester, peers)
	for i := range ings {
		ings[i] = stream.NewIngester(stream.Config{
			TotalPartitions: total, OwnedPartitions: owned[i], Pfx2AS: ds.Pfx2AS, Analysis: true,
		})
		defer ings[i].Close()
	}
	if err := sim.ReplayDataset(ds, routeSink{ings: ings, ownerOf: ownerOf}); err != nil {
		t.Fatal(err)
	}

	var views []*stream.PeerView
	var aviews []*stream.AnalysisPeerView
	var jsonBytes, binBytes int
	for _, ing := range ings {
		pv, err := ing.PeerView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		av, err := ing.AnalysisPeerView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, binaryRoundTrip(t, pv, stream.AppendPeerView, stream.DecodePeerView))
		aviews = append(aviews, binaryRoundTrip(t, av, stream.AppendAnalysisPeerView, stream.DecodeAnalysisPeerView))
		for _, v := range []any{pv, av} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			jsonBytes += len(b)
		}
		binBytes += len(stream.AppendPeerView(nil, pv)) + len(stream.AppendAnalysisPeerView(nil, av))
	}
	t.Logf("peer views: %d B of JSON, %d B of frames", jsonBytes, binBytes)
	if binBytes*3 > jsonBytes {
		t.Errorf("binary views take %d B, over a third of the JSON's %d B", binBytes, jsonBytes)
	}

	sum, err := serve.RenderSummary(stream.MergePeerViews(views, total))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, refSummary) {
		t.Error("summary merged from binary views differs from the single-node render")
	}
	res, _ := stream.MergeAnalysisPeerViews(aviews)
	ab, err := serve.RenderAnalysis(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, refAnalysis) {
		t.Error("analysis merged from binary views differs from the single-node render")
	}
}

// fixtureViews encodes the cluster fixture's views, one peer owning
// every partition.
func fixtureViews(t testing.TB) (view, analysis []byte) {
	t.Helper()
	ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: testStore(t), Analysis: true})
	defer ing.Close()
	feedPartitioned(t, []*stream.Ingester{ing}, make([]int, 4))
	pv, err := ing.PeerView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	av, err := ing.AnalysisPeerView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stream.AppendPeerView(nil, pv), stream.AppendAnalysisPeerView(nil, av)
}

// TestViewDecodersRejectDamage: every truncation and every flipped byte
// of an encoded view is an error, as is one view decoded as the other.
func TestViewDecodersRejectDamage(t *testing.T) {
	view, analysis := fixtureViews(t)
	decoders := map[string]func([]byte) error{
		"view":     func(b []byte) error { _, err := stream.DecodePeerView(b); return err },
		"analysis": func(b []byte) error { _, err := stream.DecodeAnalysisPeerView(b); return err },
	}
	for name, body := range map[string][]byte{"view": view, "analysis": analysis} {
		decode := decoders[name]
		if err := decode(body); err != nil {
			t.Fatalf("%s: intact body: %v", name, err)
		}
		for n := 0; n < len(body); n++ {
			if decode(body[:n]) == nil {
				t.Fatalf("%s: accepted a %d-byte prefix of %d", name, n, len(body))
			}
		}
		for i := range body {
			flipped := bytes.Clone(body)
			flipped[i] ^= 0xff
			if decode(flipped) == nil {
				t.Fatalf("%s: accepted the body with byte %d flipped", name, i)
			}
		}
		if decode(append(bytes.Clone(body), body...)) == nil {
			t.Errorf("%s: accepted trailing frames", name)
		}
	}
	if decoders["view"](analysis) == nil || decoders["analysis"](view) == nil {
		t.Error("a view decoded as the other kind of view")
	}
}

// FuzzPeerViewFrames and FuzzAnalysisViewFrames hold the peer-view
// decoders to three properties on arbitrary bytes: they never panic;
// what they accept re-encodes and decodes back to an equal view; and no
// input makes them allocate much more than its own length.
func FuzzPeerViewFrames(f *testing.F) {
	view, _ := fixtureViews(f)
	fuzzViewDecoder(f, view, stream.AppendPeerView, stream.DecodePeerView)
}

func FuzzAnalysisViewFrames(f *testing.F) {
	_, analysis := fixtureViews(f)
	fuzzViewDecoder(f, analysis, stream.AppendAnalysisPeerView, stream.DecodeAnalysisPeerView)
}

func fuzzViewDecoder[T any](f *testing.F, seed []byte, enc func([]byte, *T) []byte, dec func([]byte) (*T, error)) {
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	for _, i := range []int{0, 9, wire.FrameHeaderSize + 1, len(seed) / 3, len(seed) - 2} {
		flipped := bytes.Clone(seed)
		flipped[i] ^= 0x41
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Mutations rarely survive the CRC, so each input is also tried
		// with its frame checksums recomputed: that sends the mutated
		// payloads on to the field decoders.
		for _, in := range [][]byte{b, refreshChecksums(b)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := dec(in)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(32*len(in)+64<<10) {
				t.Fatalf("decoding %d bytes allocated %d", len(in), alloc)
			}
			if err != nil {
				continue
			}
			again := enc(nil, v)
			back, err := dec(again)
			if err != nil {
				t.Fatalf("re-encoded view does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("view changed across a re-encode:\n%+v\nvs\n%+v", back, v)
			}
			if !bytes.Equal(enc(nil, back), again) {
				t.Fatal("encoding is not deterministic")
			}
		}
	})
}

// refreshChecksums returns a copy of b with every whole frame's CRC32C
// recomputed over its payload.
func refreshChecksums(b []byte) []byte {
	out := bytes.Clone(b)
	for off := 0; off+wire.FrameHeaderSize <= len(out); {
		n, _ := wire.ParseFrameHeader(out[off:])
		end := off + wire.FrameHeaderSize + int(n)
		if n == 0 || n > wire.MaxFramePayload || end > len(out) {
			break
		}
		wire.PutFrameHeader(out[off:], out[off+wire.FrameHeaderSize:end])
		off = end
	}
	return out
}

// seed77PeerViews returns the views of one peer of a 12-partition
// cluster over the seed-77, scale-0.5 world (the benchmark harness's):
// the peer owns partitions 0, 3, 6 and 9.
func seed77PeerViews(tb testing.TB) (*stream.PeerView, *stream.AnalysisPeerView) {
	tb.Helper()
	const total = 12
	cfg := sim.DefaultConfig()
	cfg.Seed = 77
	cfg.Scale = 0.5
	world, err := sim.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	owned := []int{0, 3, 6, 9}
	ing := stream.NewIngester(stream.Config{
		TotalPartitions: total, OwnedPartitions: owned, Pfx2AS: world.Dataset.Pfx2AS, Analysis: true,
	})
	defer ing.Close()
	ownerOf := make([]int, total)
	for p := range ownerOf {
		ownerOf[p] = 1
	}
	for _, p := range owned {
		ownerOf[p] = 0
	}
	discard := stream.NewIngester(stream.Config{TotalPartitions: total, OwnedPartitions: []int{1, 2, 4, 5, 7, 8, 10, 11}})
	defer discard.Close()
	if err := sim.ReplayDataset(world.Dataset, routeSink{ings: []*stream.Ingester{ing, discard}, ownerOf: ownerOf}); err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	pv, err := ing.PeerView(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	av, err := ing.AnalysisPeerView(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return pv, av
}

// TestAnalysisViewDecodeAllocs pins that decoding an analysis view
// allocates less than two and a half times its body: the gaps decode
// into 12-byte events, not 48-byte classified gaps. What is left is the
// decoded lists themselves: a gap's event is 12 bytes against its 6 or
// 7 encoded ones.
func TestAnalysisViewDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	_, av := seed77PeerViews(t)
	body := stream.AppendAnalysisPeerView(nil, av)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := stream.DecodeAnalysisPeerView(body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("decoding a %d-byte analysis view allocated %d bytes", len(body), alloc)
	if 2*alloc >= uint64(5*len(body)) {
		t.Errorf("decoding a %d-byte analysis view allocated %d bytes, want under two and a half times the body", len(body), alloc)
	}
}

// BenchmarkPeerViewCodec encodes and decodes one peer's views
// (seed77PeerViews) in both encodings. body-B is the encoded size;
// -benchmem gives the allocation per encode or decode.
func BenchmarkPeerViewCodec(b *testing.B) {
	pv, av := seed77PeerViews(b)
	benchViewCodec(b, "view", pv, stream.AppendPeerView, stream.DecodePeerView)
	benchViewCodec(b, "analysis", av, stream.AppendAnalysisPeerView, stream.DecodeAnalysisPeerView)
}

func benchViewCodec[T any](b *testing.B, name string, v *T, enc func([]byte, *T) []byte, dec func([]byte) (*T, error)) {
	jsonBody, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	binBody := enc(nil, v)
	b.Run(name+"/json/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(v); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(jsonBody)), "body-B")
	})
	b.Run(name+"/json/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(jsonBody, new(T)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(jsonBody)), "body-B")
	})
	b.Run(name+"/binary/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc(nil, v)
		}
		b.ReportMetric(float64(len(binBody)), "body-B")
	})
	b.Run(name+"/binary/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dec(binBody); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(binBody)), "body-B")
	})
}
