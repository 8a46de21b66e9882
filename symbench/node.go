package main

import (
	"fmt"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
)

// node is the system under test: a server.Service on loopback TCP over a
// durable storage.Engine with fsync=group (the cmd/serve default), plus the
// registry both publish their telemetry into.
type node struct {
	dir  string
	reg  *metrics.Registry
	eng  *storage.Engine
	svc  *server.Service
	qe   *query.Engine
	addr string
	// open is how long storage.Open took: recovery, when dir held data.
	open time.Duration
}

// startNode opens (or recovers) the engine in dir and serves it. With a
// tracer, the service's ingest and query layers are wrapped so the
// tracer records a span around every call into them.
func startNode(dir string, tr *tracer) (*node, error) {
	reg := metrics.New()
	start := time.Now()
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: 16, Sync: storage.SyncGroup, Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	n := &node{dir: dir, reg: reg, eng: eng, open: time.Since(start)}
	n.svc = server.New(server.Config{
		Store:       eng.Store(),
		IdleTimeout: 2 * time.Minute,
		Metrics:     reg,
	})
	n.qe = query.New(eng.Store())
	if tr != nil {
		n.svc.SetIngest(&tracedIngest{Engine: eng, tr: tr})
		n.svc.SetQueryHandler(&tracedQuery{eng: n.qe, tr: tr})
	} else {
		n.svc.SetIngest(eng)
		n.svc.SetQueryHandler(n.qe)
	}
	addr, err := n.svc.Listen("127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	n.addr = addr.String()
	return n, nil
}

// stop closes the service, then the engine (which needs ingest quiesced).
func (n *node) stop() error {
	n.svc.Close()
	return n.eng.Close()
}

// restart stops the node and recovers it from its directory, untraced.
func (n *node) restart() (*node, error) {
	if err := n.stop(); err != nil {
		return nil, err
	}
	return startNode(n.dir, nil)
}
