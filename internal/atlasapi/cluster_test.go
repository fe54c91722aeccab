package atlasapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/stream"
)

// TestClusterViewEncodings: a plain GET on either view route answers
// JSON that decodes into the stream type, and a GET whose Accept lists
// ContentTypeBinary answers frames that decode to the same view.
func TestClusterViewEncodings(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t), Analysis: true})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing, WithClusterNode("p0")))
	defer srv.Close()
	if code, body := postWire(t, srv.URL,
		atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200},
		atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(0), End: liveHour(24), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")},
		atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(25), End: liveHour(49), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")},
		atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(50), End: liveHour(80), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.3")},
	); code != 200 {
		t.Fatalf("ingest: %d %q", code, body)
	}

	fetch := func(path, accept string) (string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s (Accept %q): %d %s", path, accept, resp.StatusCode, body)
		}
		return resp.Header.Get("Content-Type"), body
	}
	// sameView fails unless the binary body decodes to the view the
	// JSON body holds.
	sameView := func(path string, fromJSON, fromBinary any) {
		t.Helper()
		a, err := json.Marshal(fromJSON)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(fromBinary)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: binary view differs from JSON view:\n%s\nvs\n%s", path, b, a)
		}
	}

	for _, accept := range []string{"", "application/json", "*/*"} {
		if ct, _ := fetch(RouteClusterView, accept); ct != "application/json" {
			t.Errorf("view with Accept %q: Content-Type %q, want application/json", accept, ct)
		}
	}

	ct, body := fetch(RouteClusterView, "")
	var pv stream.PeerView
	if err := json.Unmarshal(body, &pv); err != nil {
		t.Fatalf("view JSON: %v", err)
	}
	if len(pv.Probes) != 1 || pv.Probes[0].ID != 206 {
		t.Errorf("view JSON probes %+v, want probe 206", pv.Probes)
	}
	for _, accept := range []string{ContentTypeBinary, "application/json;q=0.5, " + ContentTypeBinary} {
		ct, body = fetch(RouteClusterView, accept)
		if ct != ContentTypeBinary {
			t.Fatalf("view with Accept %q: Content-Type %q", accept, ct)
		}
		bin, err := stream.DecodePeerView(body)
		if err != nil {
			t.Fatalf("view frames: %v", err)
		}
		sameView(RouteClusterView, &pv, bin)
	}

	ct, body = fetch(RouteClusterAnalysisView, "")
	if ct != "application/json" {
		t.Errorf("analysis view: Content-Type %q, want application/json", ct)
	}
	var av stream.AnalysisPeerView
	if err := json.Unmarshal(body, &av); err != nil {
		t.Fatalf("analysis view JSON: %v", err)
	}
	if len(av.Events) != 1 || len(av.Events[0].Gaps) != 2 {
		t.Errorf("analysis view JSON events %+v, want probe 206 with 2 gaps", av.Events)
	}
	ct, body = fetch(RouteClusterAnalysisView, ContentTypeBinary)
	if ct != ContentTypeBinary {
		t.Fatalf("analysis view with binary Accept: Content-Type %q", ct)
	}
	abin, err := stream.DecodeAnalysisPeerView(body)
	if err != nil {
		t.Fatalf("analysis view frames: %v", err)
	}
	sameView(RouteClusterAnalysisView, &av, abin)
}
