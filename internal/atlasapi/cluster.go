package atlasapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"dynaddr/internal/stream"
)

// Inter-peer cluster routes, mounted only in cluster peer mode
// (WithClusterNode). They carry mergeable state between a peer and its
// coordinator:
//
//	GET  /api/v1/cluster/view          mergeable snapshot contribution (PeerView)
//	GET  /api/v1/cluster/analysisview  mergeable analysis contribution
//	GET  /api/v1/cluster/info          node identity + partition ownership + version
//	POST /api/v1/cluster/partitions/release  {"partition": N} → PartitionState
//	POST /api/v1/cluster/partitions/adopt    PartitionState → {"adopted": N}
//
// The two view routes answer in either of two encodings. A request
// whose Accept header lists application/x-atlas-binary (the
// coordinator's) gets internal/wire frames (stream.AppendPeerView,
// stream.AppendAnalysisPeerView): the analysis view is mostly per-probe
// gap lists, which the frames carry in about an eighth of the JSON bytes.
// Any other request, such as a plain curl, gets the same view as JSON.
// Both decode to bit-identical stream values, so the merge cannot tell
// them apart.
//
// View responses are uncacheable by design: a coordinator always wants
// the current barrier, and the merged artifact gets its own ETag from
// the summed version.
const (
	RouteClusterView         = "/api/v1/cluster/view"
	RouteClusterAnalysisView = "/api/v1/cluster/analysisview"
	RouteClusterInfo         = "/api/v1/cluster/info"
	RouteClusterRelease      = "/api/v1/cluster/partitions/release"
	RouteClusterAdopt        = "/api/v1/cluster/partitions/adopt"
)

// WithClusterNode puts the server in cluster peer mode: the inter-peer
// endpoints are mounted and /api/v1/cluster/info reports this node ID.
func WithClusterNode(nodeID string) LiveOption {
	return func(s *LiveServer) {
		s.nodeID = nodeID
		s.cluster = true
	}
}

// ClusterInfo is the /api/v1/cluster/info envelope: who this peer is
// and what it owns, plus its stream position at a consistent barrier.
type ClusterInfo struct {
	NodeID          string         `json:"node_id"`
	TotalPartitions int            `json:"total_partitions"`
	Partitions      []int          `json:"partitions"`
	Version         stream.Version `json:"version"`
}

func (s *LiveServer) clusterView(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pv, err := s.ing.PeerView(r.Context())
	if err != nil {
		s.ingestError(w, err, 0)
		return
	}
	if wantsBinary(r) {
		writeClusterBinary(w, stream.AppendPeerView(nil, pv))
		return
	}
	writeClusterJSON(w, pv)
}

func (s *LiveServer) clusterAnalysisView(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pv, err := s.ing.AnalysisPeerView(r.Context())
	if err != nil {
		if errors.Is(err, stream.ErrAnalysisDisabled) {
			apiError(w, http.StatusNotFound, err.Error())
			return
		}
		s.ingestError(w, err, 0)
		return
	}
	if wantsBinary(r) {
		writeClusterBinary(w, stream.AppendAnalysisPeerView(nil, pv))
		return
	}
	writeClusterJSON(w, pv)
}

func (s *LiveServer) clusterInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap, err := s.ing.SnapshotContext(r.Context())
	if err != nil {
		s.ingestError(w, err, 0)
		return
	}
	writeClusterJSON(w, ClusterInfo{
		NodeID:          s.nodeID,
		TotalPartitions: s.ing.TotalPartitions(),
		Partitions:      s.ing.OwnedPartitions(),
		Version:         snap.Version,
	})
}

// clusterRelease hands a partition's complete state to the caller (the
// coordinator, mid-rebalance) and stops owning it. The response body is
// the partition's shipping form; the caller POSTs it verbatim to the
// adopting peer. Errors map like ingest errors: releasing an unowned
// partition is the caller's 421, a degraded one a 503.
func (s *LiveServer) clusterRelease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Partition *int `json:"partition"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil || req.Partition == nil {
		apiError(w, http.StatusBadRequest, "body must be {\"partition\": N}")
		return
	}
	st, err := s.ing.ReleasePartition(*req.Partition)
	switch {
	case err == nil:
	case errors.Is(err, stream.ErrNotOwner), errors.Is(err, stream.ErrDegraded), errors.Is(err, stream.ErrClosed):
		s.ingestError(w, err, 0)
		return
	default:
		// Disk-level failures carry paths — operator information.
		s.internalError(w, r, err)
		return
	}
	writeClusterJSON(w, st)
}

func (s *LiveServer) clusterAdopt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var st stream.PartitionState
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBatch)).Decode(&st); err != nil {
		apiError(w, http.StatusBadRequest, "bad partition state: "+err.Error())
		return
	}
	if err := s.ing.AdoptPartition(&st); err != nil {
		s.ingestError(w, err, 0)
		return
	}
	writeClusterJSON(w, map[string]int{"adopted": st.Partition})
}

// wantsBinary reports whether the request's Accept header lists
// ContentTypeBinary.
func wantsBinary(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, rng := range strings.Split(v, ",") {
			mt, _, _ := strings.Cut(rng, ";")
			if strings.EqualFold(strings.TrimSpace(mt), ContentTypeBinary) {
				return true
			}
		}
	}
	return false
}

func writeClusterBinary(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Cache-Control", "no-store")
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

func writeClusterJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}
