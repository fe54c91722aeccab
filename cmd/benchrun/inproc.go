package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/cluster"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// inproc is a deployment assembled in this process from the same public
// handlers atlasd mounts (LiveServer behind InstrumentHTTP and
// RecoverPanics, or a cluster.Coordinator over LiveServer peers), each
// on its own loopback listener with a span-recording wrapper.
type inproc struct {
	front  string // base URL clients talk to
	peers  []string
	ings   []*stream.Ingester
	srvs   []*httptest.Server
	closed bool
}

func (p *inproc) close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	// Front first: the coordinator's in-flight requests need their peers.
	for i := len(p.srvs) - 1; i >= 0; i-- {
		p.srvs[i].Close()
	}
	var first error
	for _, ing := range p.ings {
		if err := ing.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// liveConfig mirrors atlasd's -live ingest configuration as the
// workloads run it (analysis on, default checkpoints, metrics on).
func (e *runEnv) liveConfig(walDir string) stream.Config {
	cfg := stream.Config{Shards: ingestShards, CheckpointEvery: 4096, Analysis: true, Pfx2AS: e.t.ds.Pfx2AS}
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.Sync = wal.SyncPolicy(64)
	}
	return cfg
}

// liveHandler wraps an ingester the way atlasd does: admission with the
// pressure valve off (-ingest-highwater -1), the serve tier, and the
// LiveServer behind the instrumentation and panic middleware.
func liveHandler(ing *stream.Ingester, reg *obs.Registry, opts ...atlasapi.LiveOption) http.Handler {
	adm := atlasapi.NewAdmission(atlasapi.AdmissionConfig{HighWater: -1}, ing.QueuePressure, reg)
	tier := serve.NewTier(ing, serve.WithMetrics(reg))
	opts = append([]atlasapi.LiveOption{
		atlasapi.WithLiveMetrics(reg), atlasapi.WithAdmission(adm), atlasapi.WithServeTier(tier),
	}, opts...)
	ls := atlasapi.NewLiveServer(ing, opts...)
	mux := http.NewServeMux()
	mux.Handle(atlasapi.RouteStreamRecords, ls)
	mux.Handle("/api/v1/live/", ls)
	mux.Handle("/api/v1/cluster/", ls)
	return atlasapi.RecoverPanics(atlasapi.InstrumentHTTP(reg, mux), nil)
}

// newSingleNode starts one in-process atlasd-equivalent.
func (e *runEnv) newSingleNode(rec *spanRecorder, walDir string) (*inproc, error) {
	cfg := e.liveConfig(walDir)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ing, err := openIngester(cfg)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(rec.handler("atlasd", liveHandler(ing, reg)))
	return &inproc{front: srv.URL, ings: []*stream.Ingester{ing}, srvs: []*httptest.Server{srv}}, nil
}

func openIngester(cfg stream.Config) (*stream.Ingester, error) {
	if cfg.WALDir == "" {
		return stream.NewIngester(cfg), nil
	}
	ing, _, err := stream.Recover(cfg)
	return ing, err
}

// newCluster starts three in-process peers over clusterTotal partitions
// and a coordinator in front, its peer calls traced as children of the
// request that caused them.
func (e *runEnv) newCluster(rec *spanRecorder) (*inproc, error) {
	ids := make([]string, clusterPeers)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	ring, err := cluster.NewRing(ids, clusterTotal)
	if err != nil {
		return nil, err
	}
	p := &inproc{}
	var peers []cluster.Peer
	for _, id := range ids {
		cfg := e.liveConfig("")
		cfg.TotalPartitions = clusterTotal
		cfg.OwnedPartitions = append([]int{}, ring.Partitions(id)...)
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		ing := stream.NewIngester(cfg)
		srv := httptest.NewServer(rec.handler("peer", liveHandler(ing, reg, atlasapi.WithClusterNode(id))))
		p.ings = append(p.ings, ing)
		p.srvs = append(p.srvs, srv)
		p.peers = append(p.peers, srv.URL)
		peers = append(peers, cluster.Peer{ID: id, URL: srv.URL})
	}
	coord, err := cluster.New(cluster.Config{
		Peers:           peers,
		TotalPartitions: clusterTotal,
		Client:          &http.Client{Timeout: 30 * time.Second, Transport: rec.transport("coordinator", http.DefaultTransport.(*http.Transport).Clone())},
	})
	if err != nil {
		p.close()
		return nil, err
	}
	reg := obs.NewRegistry()
	front := httptest.NewServer(rec.handler("coordinator", atlasapi.RecoverPanics(atlasapi.InstrumentHTTP(reg, coord), nil)))
	p.srvs = append(p.srvs, front)
	p.front = front.URL
	return p, nil
}
