package atlasapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynaddr/internal/core"
	"dynaddr/internal/sim"
)

func analysisWorld(t *testing.T) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 515
	cfg.Scale = 0.05
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func TestAnalysisEndpoint(t *testing.T) {
	world := analysisWorld(t)
	srv := httptest.NewServer(NewServer(world.Dataset))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/analysis?parallel=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out analysisSummary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.GeoProbes == 0 || out.Table7Changes == 0 {
		t.Fatalf("empty analysis: %+v", out)
	}
	if out.Metrics == nil || out.Metrics.Parallelism != 2 {
		t.Fatalf("metrics missing or wrong: %+v", out.Metrics)
	}
	if out.Metrics.Stage(core.StepDetect) == nil {
		t.Fatal("no detect step metric")
	}
}

// TestAnalysisEndpointIgnoresStages: stages is not a parameter of the
// endpoint, so like any unknown query parameter it changes nothing.
func TestAnalysisEndpointIgnoresStages(t *testing.T) {
	world := analysisWorld(t)
	srv := httptest.NewServer(NewServer(world.Dataset))
	defer srv.Close()

	get := func(query string) analysisSummary {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/v1/analysis" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var out analysisSummary
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		out.Metrics = nil
		return out
	}
	want := get("?parallel=1")
	got := get("?parallel=1&stages=filter")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("with stages=filter %+v, without %+v", got, want)
	}
}

func TestAnalysisEndpointErrors(t *testing.T) {
	world := analysisWorld(t)
	srv := httptest.NewServer(NewServer(world.Dataset))
	defer srv.Close()

	for _, q := range []string{"?parallel=x", "?parallel=-1"} {
		resp, err := http.Get(srv.URL + "/api/v1/analysis" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	resp, err := http.Post(srv.URL+"/api/v1/analysis", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}
}

func TestAnalysisEndpointCancelled(t *testing.T) {
	world := analysisWorld(t)
	srv := httptest.NewServer(NewServer(world.Dataset))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v1/analysis", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// The run may have finished before the cancel landed; both
		// outcomes are fine — the property under test is no hang/panic.
		resp.Body.Close()
	}
}
