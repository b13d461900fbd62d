package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// cmdServe runs the broadcast-planning HTTP service (internal/service)
// until SIGINT/SIGTERM:
//
//	bmpcast serve [-addr :8080] [-workers 4] [-cache 1024]
//	              [-store dir]
//	              [-self http://host:8080] [-peers url1,url2] [-hedge-after 150ms]
//
// Endpoints: POST /v1/solve, /v1/batch, /v1/jobs and /v1/session, GET
// /v1/jobs/{id} and /v1/jobs/{id}/stream (NDJSON), plus GET /healthz
// and GET /metrics. Requests and responses are versioned wire
// documents (internal/wire); identical requests produce byte-identical
// responses — served straight from the content-addressed plan cache on
// a resubmission — which the CI serve-smoke step pins against
// committed golden files.
//
// With -self (or -peers, which implies a derived -self) the replica
// joins a cluster: solves route to the replica owning the request's
// content-addressed key on a consistent-hash ring, peers back-fill
// each other's caches, and slow owners are hedged with a local solve
// after -hedge-after. Membership is announced to -peers on start and
// a leave is broadcast on shutdown; /v1/cluster/* exposes the
// peer-to-peer protocol (all of it versioned wire documents).
//
// With -store the plan cache persists to an append-only store in that
// directory: plans solved before a restart are served byte-identical
// (X-Bmpcast-Cache: hit) without re-solving, and similar instances
// warm-start the repair path (X-Bmpcast-Cache: warm). `bmpcast store`
// inspects, compacts and verifies the directory offline.
func cmdServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 4, "max concurrent solves across all endpoints")
	cache := fs.Int("cache", 0, "plan cache entries (0 = default 1024, negative disables caching)")
	self := fs.String("self", "", "advertised base URL of this replica; enables cluster mode (default derives from the listen address when -peers is set)")
	peers := fs.String("peers", "", "comma-separated base URLs of existing replicas to join")
	hedgeAfter := fs.Duration("hedge-after", 0, "owner latency budget before a forwarded solve is hedged with a local one (0 = 150ms default, negative = fail over only on owner errors)")
	storeDir := fs.String("store", "", "persist solved plans to this directory: identical requests are answered byte-identical across restarts and similar requests warm-start (replica-local in cluster mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	peerList := splitList(*peers)
	selfURL := *self
	if selfURL == "" && len(peerList) > 0 {
		selfURL = deriveSelf(ln.Addr())
	}
	svc, err := service.NewServer(service.Config{
		Workers: *workers, CacheSize: *cache,
		Self: selfURL, Peers: peerList, HedgeAfter: *hedgeAfter,
		StoreDir: *storeDir,
	})
	if err != nil {
		ln.Close()
		return fmt.Errorf("serve: %w", err)
	}
	defer svc.Close()
	httpSrv := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}

	if selfURL != "" {
		fmt.Fprintf(stdout, "bmpcast: serving on http://%s as cluster replica %s (workers=%d, peers=%d)\n",
			ln.Addr(), selfURL, *workers, len(peerList))
	} else {
		fmt.Fprintf(stdout, "bmpcast: serving on http://%s (workers=%d)\n", ln.Addr(), *workers)
	}
	if *storeDir != "" {
		st := svc.StoreStats()
		fmt.Fprintf(stdout, "bmpcast: plan store %s: %d plans / %d bytes loaded\n", *storeDir, st.Entries, st.Bytes)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	if len(peerList) > 0 {
		joinCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := svc.JoinCluster(joinCtx, peerList); err != nil {
			// Replicas come up in any order; a seed that is not listening
			// yet is not fatal — it will announce itself to us instead.
			fmt.Fprintf(stdout, "bmpcast: cluster join: %v (continuing; peers can join us later)\n", err)
		} else {
			fmt.Fprintf(stdout, "bmpcast: cluster members: %v\n", svc.Members())
		}
		cancel()
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "bmpcast: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.LeaveCluster(ctx) // re-shard the ring before the listener dies
		return httpSrv.Shutdown(ctx)
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// deriveSelf turns the bound listener address into an advertised base
// URL, substituting a loopback host when the listener is wildcard
// ("[::]:8080" is not a dialable peer address).
func deriveSelf(addr net.Addr) string {
	host, port := "127.0.0.1", ""
	if tcp, ok := addr.(*net.TCPAddr); ok {
		port = fmt.Sprintf("%d", tcp.Port)
		if tcp.IP != nil && !tcp.IP.IsUnspecified() {
			host = tcp.IP.String()
		}
	} else {
		var err error
		if host, port, err = net.SplitHostPort(addr.String()); err != nil || host == "" || host == "::" {
			host = "127.0.0.1"
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}
