package atlasapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/pfx2as"
)

// Server publishes a dataset through the collection-era HTTP endpoints:
//
//	GET /api/v1/probe-archive/                 probe metadata (JSON)
//	GET /probes/{id}/connection-history/       sessions (text page)
//	GET /api/v1/measurements/kroot/{id}/       ping results (NDJSON)
//	GET /api/v1/measurements/uptime/{id}/      uptime reports (NDJSON)
//	GET /caida/pfx2as/{yyyymm}.txt             monthly pfx2as snapshot
//	GET /api/v1/analysis                       analysis summary
//
// Server is an http.Handler; mount it on any mux or serve it directly.
type Server struct {
	src     Source
	mux     *http.ServeMux
	metrics *obs.Registry
	shared  sharedDataset
}

// Source is the dataset a Server publishes: an in-memory
// *atlasdata.Dataset, or an *atlasdata.Archive that reads each probe's
// records from disk per request.
type Source interface {
	ProbeIDs() []atlasdata.ProbeID
	Meta(atlasdata.ProbeID) (atlasdata.ProbeMeta, bool)
	ReadConnLogs(atlasdata.ProbeID) ([]atlasdata.ConnLogEntry, error)
	ReadKRoot(atlasdata.ProbeID) ([]atlasdata.KRootRound, error)
	ReadUptime(atlasdata.ProbeID) ([]atlasdata.UptimeRecord, error)
	Snapshots() *pfx2as.SnapshotStore
	// Dataset returns the whole dataset in memory, for the analysis
	// route. It gives up with ctx's error once ctx is done.
	Dataset(ctx context.Context) (*atlasdata.Dataset, error)
}

// SetMetrics attaches a registry; analysis runs triggered through
// /api/v1/analysis export their RunMetrics into it. Call before
// serving.
func (s *Server) SetMetrics(reg *obs.Registry) { s.metrics = reg }

// NewServer wraps a dataset. The dataset must not be mutated while the
// server is live.
func NewServer(src Source) *Server {
	s := &Server{src: src, mux: http.NewServeMux(), shared: sharedDataset{lock: make(chan struct{}, 1)}}
	s.mux.HandleFunc("/api/v1/probe-archive/", s.probeArchive)
	s.mux.HandleFunc("/probes/", s.connectionHistory)
	s.mux.HandleFunc("/api/v1/measurements/kroot/", s.kroot)
	s.mux.HandleFunc("/api/v1/measurements/uptime/", s.uptime)
	s.mux.HandleFunc("/caida/pfx2as/", s.pfx2as)
	s.mux.HandleFunc("/api/v1/analysis", s.analysis)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) probeArchive(w http.ResponseWriter, r *http.Request) {
	ids := s.src.ProbeIDs()
	probes := make([]atlasdata.ProbeMeta, 0, len(ids))
	for _, id := range ids {
		p, _ := s.src.Meta(id)
		probes = append(probes, p)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := WriteProbeArchive(w, probes); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// probeIDFrom extracts the probe ID from paths like
// /probes/206/connection-history/ or /api/v1/measurements/kroot/206/.
func probeIDFrom(path, prefix string) (atlasdata.ProbeID, error) {
	rest := strings.TrimPrefix(path, prefix)
	rest = strings.Trim(rest, "/")
	// The connection-history path carries a trailing segment.
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id <= 0 {
		return 0, fmt.Errorf("bad probe id %q", rest)
	}
	return atlasdata.ProbeID(id), nil
}

func (s *Server) lookupProbe(w http.ResponseWriter, r *http.Request, prefix string) (atlasdata.ProbeID, bool) {
	id, err := probeIDFrom(r.URL.Path, prefix)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, false
	}
	if _, ok := s.src.Meta(id); !ok {
		http.Error(w, fmt.Sprintf("probe %d not found", id), http.StatusNotFound)
		return 0, false
	}
	return id, true
}

func (s *Server) connectionHistory(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(strings.TrimSuffix(r.URL.Path, "/"), "connection-history") {
		http.NotFound(w, r)
		return
	}
	id, ok := s.lookupProbe(w, r, "/probes/")
	if !ok {
		return
	}
	conns, err := s.src.ReadConnLogs(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := WriteConnectionHistory(w, id, conns); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) kroot(w http.ResponseWriter, r *http.Request) {
	id, ok := s.lookupProbe(w, r, "/api/v1/measurements/kroot/")
	if !ok {
		return
	}
	rounds, err := s.src.ReadKRoot(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := WriteKRootResults(w, rounds); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) uptime(w http.ResponseWriter, r *http.Request) {
	id, ok := s.lookupProbe(w, r, "/api/v1/measurements/uptime/")
	if !ok {
		return
	}
	recs, err := s.src.ReadUptime(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := WriteUptimeResults(w, recs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) pfx2as(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/caida/pfx2as/")
	if name == "" {
		// Month index, for clients discovering what to fetch.
		w.Header().Set("Content-Type", "application/json")
		months := s.src.Snapshots().Months()
		out := make([]int, len(months))
		for i, m := range months {
			out[i] = int(m)
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	m, ok := parseSnapshotName(name)
	if !ok {
		http.Error(w, "want /caida/pfx2as/YYYYMM.txt", http.StatusBadRequest)
		return
	}
	tbl, ok := s.src.Snapshots().Table(pfx2as.Month(m))
	if !ok {
		http.Error(w, fmt.Sprintf("no snapshot for %d", m), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := pfx2as.WriteText(w, tbl.Entries()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseSnapshotName accepts exactly the form YYYYMM.txt, the month as
// pfx2as.ParseMonth reads it.
func parseSnapshotName(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, ".txt")
	if !ok {
		return 0, false
	}
	m, ok := pfx2as.ParseMonth(base)
	return int(m), ok
}

// Months lists the snapshot months the server exposes, for clients.
func (s *Server) Months() []pfx2as.Month { return s.src.Snapshots().Months() }
