package atlasapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dynaddr/internal/atlasdata"
)

// savedArchive saves a small world and returns its directory with the
// directory loaded into memory and opened as an archive.
func savedArchive(t *testing.T) (string, *atlasdata.Dataset, *atlasdata.Archive) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := smallWorld(t, 21, 0.03).Dataset.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	archive, err := atlasdata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { archive.Close() })
	return dir, loaded, archive
}

func fetchURL(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestArchiveServesLoadBytes: a Server over Open(dir) answers every
// batch route with the status and body a Server over Load(dir) gives,
// errors included, and the same analysis apart from its timings.
func TestArchiveServesLoadBytes(t *testing.T) {
	_, loaded, archive := savedArchive(t)
	mem := httptest.NewServer(NewServer(loaded))
	defer mem.Close()
	disk := httptest.NewServer(NewServer(archive))
	defer disk.Close()

	paths := []string{
		"/api/v1/probe-archive/",
		"/caida/pfx2as/", "/caida/pfx2as/209901.txt", "/caida/pfx2as/2015.txt",
		"/probes/0/connection-history/", "/probes/x/connection-history/", "/probes/99999999/connection-history/",
		"/api/v1/measurements/kroot/-1/", "/api/v1/measurements/kroot/99999999/",
		"/api/v1/measurements/uptime/abc/", "/api/v1/measurements/uptime/99999999/",
		"/api/v1/analysis?parallel=-1", "/api/v1/analysis?stages=nope",
	}
	for _, m := range loaded.Pfx2AS.Months() {
		paths = append(paths, fmt.Sprintf("/caida/pfx2as/%06d.txt", int(m)))
	}
	for _, id := range loaded.ProbeIDs() {
		paths = append(paths,
			fmt.Sprintf("/probes/%d/connection-history/", id),
			fmt.Sprintf("/api/v1/measurements/kroot/%d/", id),
			fmt.Sprintf("/api/v1/measurements/uptime/%d/", id))
	}
	statuses := map[int]int{}
	for _, path := range paths {
		wantStatus, want := fetchURL(t, mem.URL+path)
		gotStatus, got := fetchURL(t, disk.URL+path)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("GET %s: archive %d %q, memory %d %q", path, gotStatus, got, wantStatus, want)
		}
		statuses[wantStatus]++
	}
	if statuses[http.StatusOK] == 0 || statuses[http.StatusNotFound] == 0 || statuses[http.StatusBadRequest] == 0 {
		t.Errorf("status mix %v lacks a 200, 404 or 400 case", statuses)
	}

	if want, got := analysisWithoutMetrics(t, mem.URL), analysisWithoutMetrics(t, disk.URL); !bytes.Equal(got, want) {
		t.Errorf("analysis from the archive:\n%s\nfrom memory:\n%s", got, want)
	}
}

// analysisWithoutMetrics fetches base's analysis and re-encodes it
// without its run metrics, whose timings differ run to run.
func analysisWithoutMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/analysis?parallel=2")
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("analysis: %d, %v", resp.StatusCode, err)
		return nil
	}
	delete(out, "metrics")
	b, _ := json.Marshal(out)
	return b
}

// TestArchiveConcurrentAnalysis: overlapping analysis requests on an
// archive-backed server all answer what a Load-backed server answers.
func TestArchiveConcurrentAnalysis(t *testing.T) {
	_, loaded, archive := savedArchive(t)
	mem := httptest.NewServer(NewServer(loaded))
	defer mem.Close()
	disk := httptest.NewServer(NewServer(archive))
	defer disk.Close()

	want := analysisWithoutMetrics(t, mem.URL)
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = analysisWithoutMetrics(t, disk.URL)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("request %d from the archive:\n%s\nfrom memory:\n%s", i, g, want)
		}
	}
}

// countingSource counts Dataset calls and, when gate is set, holds each
// one until gate is closed.
type countingSource struct {
	*atlasdata.Archive
	mu    sync.Mutex
	calls int
	gate  chan struct{}
}

func (c *countingSource) Dataset(ctx context.Context) (*atlasdata.Dataset, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	if c.gate != nil {
		<-c.gate
	}
	return c.Archive.Dataset(ctx)
}

// TestSharedDatasetReadsOncePerOverlap: requests that overlap share one
// materialised dataset; once the last releases it, the next request
// reads the archive again.
func TestSharedDatasetReadsOncePerOverlap(t *testing.T) {
	_, _, archive := savedArchive(t)
	src := &countingSource{Archive: archive}
	sh := sharedDataset{lock: make(chan struct{}, 1)}
	ctx := context.Background()

	first, err := sh.acquire(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*atlasdata.Dataset, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := sh.acquire(ctx, src)
			if err != nil {
				t.Error(err)
			}
			got[i] = ds
		}()
	}
	wg.Wait()
	for i, ds := range got {
		if ds != first {
			t.Errorf("request %d got its own dataset while the first was held", i)
		}
	}
	if src.calls != 1 {
		t.Errorf("%d reads of the archive for 5 overlapping requests, want 1", src.calls)
	}
	for range 1 + len(got) {
		sh.release()
	}
	if sh.ds != nil {
		t.Error("dataset still held after every request released it")
	}
	again, err := sh.acquire(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	sh.release()
	if again == first || src.calls != 2 {
		t.Errorf("after release: same copy %v, %d reads; want a fresh read", again == first, src.calls)
	}

	// An in-memory source is served as itself, not copied.
	ds := first
	mem := sharedDataset{lock: make(chan struct{}, 1)}
	if got, err := mem.acquire(ctx, ds); err != nil || got != ds || mem.copied {
		t.Errorf("in-memory source: got itself %v, copied %v, %v", got == ds, mem.copied, err)
	}
	mem.release()
}

// TestSharedDatasetWaiterGivesUp: a request waiting for another's read
// returns its own context's error once that is done.
func TestSharedDatasetWaiterGivesUp(t *testing.T) {
	_, _, archive := savedArchive(t)
	src := &countingSource{Archive: archive, gate: make(chan struct{})}
	sh := sharedDataset{lock: make(chan struct{}, 1)}

	loaded := make(chan error, 1)
	go func() {
		_, err := sh.acquire(context.Background(), src)
		loaded <- err
	}()
	for { // wait until the first request is reading
		src.mu.Lock()
		n := src.calls
		src.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.acquire(ctx, src); !errors.Is(err, context.Canceled) {
		t.Errorf("waiting request after cancel: %v, want context.Canceled", err)
	}
	close(src.gate)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	sh.release()
}

// TestArchiveRewriteAnswers500: once a record file is rewritten in
// place, the changed probe's route and the analysis answer 500 rather
// than serve the new bytes; other probes still answer.
func TestArchiveRewriteAnswers500(t *testing.T) {
	dir, loaded, archive := savedArchive(t)
	srv := httptest.NewServer(NewServer(archive))
	defer srv.Close()

	path := filepath.Join(dir, "kroot.tsv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first line is the lowest probe's first round; bump the last
	// digit of its LTS field.
	line := data[:bytes.IndexByte(data, '\n')]
	victim, err := strconv.Atoi(string(line[:bytes.IndexByte(line, '\t')]))
	if err != nil {
		t.Fatal(err)
	}
	at := int64(len(line) - 1)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'0' + (line[at]-'0'+1)%10}, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if status, body := fetchURL(t, fmt.Sprintf("%s/api/v1/measurements/kroot/%d/", srv.URL, victim)); status != http.StatusInternalServerError {
		t.Errorf("rewritten probe %d: %d %q, want 500", victim, status, body)
	}
	if status, _ := fetchURL(t, srv.URL+"/api/v1/analysis"); status != http.StatusInternalServerError {
		t.Errorf("analysis over a rewritten archive: %d, want 500", status)
	}
	for _, id := range loaded.ProbeIDs() {
		if id == atlasdata.ProbeID(victim) {
			continue
		}
		if status, body := fetchURL(t, fmt.Sprintf("%s/api/v1/measurements/kroot/%d/", srv.URL, id)); status != http.StatusOK {
			t.Fatalf("probe %d: %d %q", id, status, body)
		}
	}
}
