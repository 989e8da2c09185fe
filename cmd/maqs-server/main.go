// Command maqs-server runs a standalone QoS-enabled demo server over TCP:
// an echo/document service supporting the Compression, Encryption and
// Actuality characteristics. It prints the stringified IOR so any client
// process (on this or another machine) can negotiate against it.
//
// Usage:
//
//	maqs-server [-addr 127.0.0.1:9700] [-debug 127.0.0.1:9780]
//
// With -debug, an HTTP endpoint exposes /metrics (text or ?format=json),
// /trace (recent spans, ?trace=<id> to filter, ?limit=N to bound),
// /trace/ops (per-operation aggregates), /flight (the invocation flight
// recorder's record ring and anomaly dumps, ?dump=<id> for one frozen
// dump), /health (liveness) and /ready (readiness checks) for the
// instrumented invocation path, plus the net/http/pprof handlers under
// /debug/pprof/.
//
// Inspect the printed reference with ior-dump; stop with ctrl-C.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"maqs"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/orb"
)

// demoServant answers echo/document operations.
type demoServant struct {
	mu  sync.Mutex
	doc []byte
}

func (s *demoServant) Invoke(req *maqs.ServerRequest) error {
	switch req.Operation {
	case "echo":
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		req.Out.WriteOctets(p)
		return nil
	case "get_document":
		s.mu.Lock()
		defer s.mu.Unlock()
		req.Out.WriteOctets(s.doc)
		return nil
	case "put_document":
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.doc = append([]byte(nil), p...)
		s.mu.Unlock()
		return nil
	case "get_time":
		req.Out.WriteLongLong(time.Now().UnixNano())
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no operation %q", req.Operation)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "maqs-server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9700", "listen address (host:port)")
	debug := flag.String("debug", "", "HTTP debug address serving /metrics, /trace, /flight, /health and /ready (empty: disabled)")
	flag.Parse()

	opts := maqs.Options{}
	if *debug != "" {
		opts.Observability = maqs.NewObservability()
	}
	sys, err := maqs.NewSystem(opts)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := sys.Listen(*addr); err != nil {
		return err
	}
	if err := sys.LoadModule(compression.ModuleName, nil); err != nil {
		return err
	}
	if err := sys.LoadModule(encryption.ModuleName, nil); err != nil {
		return err
	}

	servant := &demoServant{doc: []byte("hello from maqs-server")}
	skel := maqs.NewServerSkeleton(servant)
	if err := skel.AddQoS(compression.NewImpl(0)); err != nil {
		return err
	}
	secure := encryption.NewImpl(0)
	secure.Transport = sys.Transport // released bindings drop their session keys
	if err := skel.AddQoS(secure); err != nil {
		return err
	}
	if err := skel.AddQoS(actuality.NewImpl(0, time.Minute)); err != nil {
		return err
	}
	ref, err := sys.ActivateQoS("demo", "IDL:maqs/Demo:1.0", skel, maqs.QoSInfo{
		Characteristics: []string{maqs.Compression, maqs.Encryption, maqs.Actuality},
		Modules:         []string{compression.ModuleName, encryption.ModuleName},
	})
	if err != nil {
		return err
	}

	var debugSrv *http.Server
	if *debug != "" {
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", sys.Observability.Handler())
		mux.HandleFunc("/debug/pprof/", http.DefaultServeMux.ServeHTTP)
		debugSrv = &http.Server{Handler: mux}
		go func() { _ = debugSrv.Serve(ln) }()
		fmt.Printf("debug endpoint on http://%s/ (/metrics, /trace, /trace/ops, /flight, /health, /ready, /debug/pprof/)\n\n", ln.Addr())
	}

	// The bound endpoint, not the flag: -addr with port 0 binds a free port.
	host, port, _ := sys.ORB.Endpoint()
	fmt.Printf("maqs-server listening on %s\n\n", net.JoinHostPort(host, strconv.Itoa(int(port))))
	fmt.Printf("demo object (Compression, Encryption, Actuality):\n%s\n\n", ref)
	fmt.Println("press ctrl-C to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	if debugSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = debugSrv.Shutdown(shutdownCtx)
		cancel()
	}
	return nil
}
