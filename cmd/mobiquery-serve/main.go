// Command mobiquery-serve puts the mobiquery session API behind a
// streaming network front-end: it opens one Service over a configured
// sensor field and serves the internal/wire NDJSON protocol — Subscribe
// as a server-streamed response, waypoint updates as a client-streamed
// request body, plus health/stats endpoints (see internal/server for the
// endpoint table).
//
// By default the service clock runs in real time (-tick); with -tick 0
// the clock is manual and the POST /v1/advance endpoint is enabled, which
// is what the deterministic tests and smoke runs use. With -tls-self the
// server generates an in-memory self-signed certificate and serves TLS,
// over which net/http negotiates HTTP/2 — the subscribe stream then rides
// one h2 server-streamed response instead of HTTP/1.1 chunks.
//
// Shutdown is graceful: on SIGINT/SIGTERM the service drains — new
// subscribes are rejected while live streams keep delivering — for up to
// -drain-grace, then closes, which ends every stream with its end frame.
//
// Profiling is opt-in and isolated: -pprof ADDR serves net/http/pprof on
// its own listener, never on the public mux, so exposing the service
// never exposes the profiler. The pprof address is printed on its own
// line after the main listening line.
//
//	mobiquery-serve -addr 127.0.0.1:9177 -nodes 5000 -region 2000 -tick 20ms
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"flag"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobiquery"
	"mobiquery/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "mobiquery-serve:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers on either listener, so an idle or trickling connection cannot
// hold a server goroutine open indefinitely. Request bodies are not under
// it: a waypoint stream legitimately stays open for a subscription's life.
const readHeaderTimeout = 10 * time.Second

// run stands the server up. ready, when non-nil, receives the bound
// address once listening — the tests' and spawners' synchronization
// point (the same address is printed to stdout for script consumers).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("mobiquery-serve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:9177", "listen address (host:port, port 0 picks a free one)")
		seed    = fs.Int64("seed", 1, "field seed: node placement and sampling phases")
		nodes   = fs.Int("nodes", 200, "sensor node count")
		region  = fs.Float64("region", 450, "square field side in meters")
		sample  = fs.Duration("sample", time.Second, "node sampling period")
		workers = fs.Int("workers", 0, "dispatch workers (0 = one per core)")
		buffer  = fs.Int("buffer", 16, "per-subscription result buffer")
		tick    = fs.Duration("tick", 20*time.Millisecond, "real-time clock tick; 0 = manual clock + POST /v1/advance")
		grace   = fs.Duration("drain-grace", 5*time.Second, "drain window before a signal forces Close")
		tlsSelf = fs.Bool("tls-self", false, "serve TLS with an in-memory self-signed cert (enables HTTP/2)")
		pprofAt = fs.String("pprof", "", "serve net/http/pprof on this separate address (host:port); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	nc := mobiquery.NetworkConfig{
		Seed:         *seed,
		Nodes:        *nodes,
		RegionSide:   *region,
		SamplePeriod: *sample,
		Service:      mobiquery.ServiceConfig{Workers: *workers},
	}
	opts := []mobiquery.Option{mobiquery.WithResultBuffer(*buffer)}
	if *tick > 0 {
		opts = append(opts, mobiquery.WithRealTime(*tick))
	}
	svc, err := mobiquery.Open(context.Background(), nc, opts...)
	if err != nil {
		return err
	}
	defer svc.Close()

	handler := server.New(svc, server.Options{AllowAdvance: *tick == 0})
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	scheme := "http"
	if *tlsSelf {
		cert, err := selfSignedCert()
		if err != nil {
			return err
		}
		httpSrv.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
		scheme = "https"
	}
	bound := ln.Addr().String()
	// The listening line is a contract: spawners (mobiquery-loadgen
	// -serve) parse it to find the bound port. It is printed first; the
	// pprof line, when enabled, always comes after it.
	fmt.Printf("mobiquery-serve listening on %s://%s (%d nodes over %.0f m, tick %v)\n",
		scheme, bound, *nodes, *region, *tick)
	if *pprofAt != "" {
		pprofBound, pprofSrv, err := startPprof(*pprofAt)
		if err != nil {
			return err
		}
		defer pprofSrv.Close()
		fmt.Printf("mobiquery-serve pprof listening on http://%s/debug/pprof/\n", pprofBound)
	}
	// Registered before anyone is told the server is up: a SIGTERM sent the
	// moment it reports ready must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if ready != nil {
		ready <- scheme + "://" + bound
	}

	errc := make(chan error, 1)
	go func() {
		if *tlsSelf {
			errc <- httpSrv.ServeTLS(ln, "", "")
		} else {
			errc <- httpSrv.Serve(ln)
		}
	}()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("mobiquery-serve: %v: draining (%d live subscriptions, grace %v)\n",
			s, svc.Subscribers(), *grace)
	}

	// Graceful drain: no new subscribes; live streams keep delivering
	// until their lifetimes run out or the grace window closes.
	svc.Drain()
	deadline := time.Now().Add(*grace)
	for svc.Subscribers() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	svc.Close() // ends every remaining stream with its end frame
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	st := svc.Stats()
	fmt.Printf("mobiquery-serve: closed (served %d subscriptions, %d results, %d dropped, %d late)\n",
		st.Opened, st.Delivered, st.Dropped, st.Late)
	return nil
}

// startPprof serves net/http/pprof on its own listener with an explicit
// mux — deliberately not the public server's mux and not
// http.DefaultServeMux, so nothing else ever leaks onto the profiling
// port (or the profiler onto the public one). Returns the bound address.
func startPprof(addr string) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}

// selfSignedCert mints a throwaway ECDSA certificate for localhost use.
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{Organization: []string{"mobiquery-serve"}},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"localhost"},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
