package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"newslink"
	"newslink/internal/cluster"
	"newslink/internal/server"
)

// The newslinkd defaults the serving workloads run with.
const (
	embedCacheSize = 128
	maxInFlight    = 256
	admissionWait  = 100 * time.Millisecond
	queryTimeout   = 20 * time.Second
	ingestQueue    = 4096
)

// system is one set-up instance of the program under test.
type system struct {
	// engine serves the workload (in-process or behind the HTTP edge). For
	// cluster-search it is the single-process engine loaded from the same
	// snapshot the router partitions: the oracle for router replies.
	engine *newslink.Engine
	// baseURL is the HTTP edge (internal/server or the cluster router);
	// empty for in-process workloads.
	baseURL string

	closers []func() error // run in reverse order by close
}

func (s *system) onClose(f func() error) { s.closers = append(s.closers, f) }

// close stops every server and engine of the system and waits for them.
func (s *system) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// listen opens a fresh loopback listener; its address is known before
// anything is served on it.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve runs h on ln and registers its shutdown.
func (s *system) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.onClose(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	})
}

// buildEngine constructs an engine and indexes the corpus: AddAll + Build,
// or, for split > 0, Build over the first split documents and a Refresh
// sealing the rest as a second segment (the cluster partitions segments).
func buildEngine(in *inputs, split int, opts ...newslink.Option) (*newslink.Engine, error) {
	e := newslink.New(in.World.Graph, append([]newslink.Option{
		newslink.DefaultConfig(), newslink.WithEmbedCache(embedCacheSize),
	}, opts...)...)
	first := in.Docs
	if split > 0 {
		first = in.Docs[:split]
	}
	if err := e.AddAll(first, 0); err != nil {
		return nil, err
	}
	if err := e.Build(); err != nil {
		return nil, err
	}
	if split > 0 {
		if err := e.AddAll(in.Docs[split:], 0); err != nil {
			return nil, err
		}
		e.Refresh()
	}
	return e, nil
}

// setUp builds the workload's system in dir. Everything it does counts in
// setup_s: engine construction, indexing, and for the serving workloads
// the edge; for cluster-search also the snapshot save, the shard
// assignment and the router start.
func setUp(w *workload, in *inputs, dir string) (*system, error) {
	s := &system{}
	var opts []newslink.Option
	if w.ingest {
		opts = append(opts, newslink.WithWAL(filepath.Join(dir, "wal")), newslink.WithIngestQueue(ingestQueue))
	}
	if w.cluster {
		return s, setUpCluster(s, in, dir)
	}
	e, err := buildEngine(in, 0, opts...)
	if err != nil {
		return s, err
	}
	s.engine = e
	s.onClose(e.Close)
	if w.http {
		api := server.New(e,
			server.WithQueryTimeout(queryTimeout),
			server.WithMaxInFlight(maxInFlight),
			server.WithAdmissionWait(admissionWait))
		ln, url, err := listen()
		if err != nil {
			return s, err
		}
		s.baseURL = url
		s.serve(ln, api.Handler())
	}
	return s, nil
}

// setUpCluster saves a two-segment snapshot and serves it through a
// router over two loopback shard workers.
func setUpCluster(s *system, in *inputs, dir string) error {
	snap := filepath.Join(dir, "snapshot")
	e, err := buildEngine(in, len(in.Docs)/2)
	if err != nil {
		return err
	}
	err = e.Save(snap)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	g := in.World.Graph
	var endpoints [][]string
	for i := 0; i < 2; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return err
		}
		ln, url, err := listen()
		if err != nil {
			return err
		}
		s.serve(ln, cluster.NewWorker(fmt.Sprintf("w%d", i), wdir, g, quietLog).Handler())
		endpoints = append(endpoints, []string{url})
	}
	// The router's own URL (where workers fetch segment artifacts) is part
	// of its config, so its listener opens first.
	ln, url, err := listen()
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(snap, g, cluster.Config{
		Endpoints:      endpoints,
		SelfURL:        url,
		RequestTimeout: queryTimeout,
		Logger:         quietLog,
	})
	if err != nil {
		ln.Close()
		return err
	}
	s.baseURL = url
	s.serve(ln, rt.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	s.onClose(func() error { cancel(); rt.Close(); return nil })
	if err := rt.Start(ctx); err != nil {
		return err
	}
	if n := len(rt.Plan().Shards); n != 2 {
		return fmt.Errorf("cluster plan has %d shards, want 2", n)
	}
	return nil
}

// loadOracle opens the cluster snapshot as one single-process engine, the
// reference router replies must equal. It is not part of setup_s.
func loadOracle(s *system, in *inputs, dir string) error {
	e, err := newslink.Load(filepath.Join(dir, "snapshot"), in.World.Graph)
	if err != nil {
		return err
	}
	s.engine = e
	s.onClose(e.Close)
	return nil
}
