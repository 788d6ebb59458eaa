package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugOptions selects what the debug mux exposes beyond pprof. Every
// field is optional: nil components serve empty documents, so binaries
// can expose profiling without enabling metrics or tracing.
type DebugOptions struct {
	// Registry backs /metrics and /metrics.json.
	Registry *Registry
	// Traces backs /debug/traces (recent sampled request traces, JSON).
	Traces *TraceBuffer
	// Flight backs /debug/flight (the flight-recorder ring: a live view
	// while unfrozen, the frozen postmortem after a trigger).
	Flight *FlightRecorder
}

// Handler returns the debug mux: /metrics (Prometheus text),
// /metrics.json, /debug/traces, /debug/flight, and the /debug/pprof/
// profiling endpoints. A nil component serves an empty page (pprof
// still works), so binaries can expose profiling without enabling
// metrics or tracing.
func Handler(opts DebugOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = opts.Registry.WriteJSON(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		writeDebugJSON(w, opts.Traces.Snapshot())
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		writeDebugJSON(w, opts.Flight.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DebugServer is a running debug endpoint. It wraps the http.Server
// so serve-loop failures — previously discarded inside the background
// goroutine — are captured and reported: Err returns the failure after
// the loop exits (Done signals when), and Close is idempotent.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string

	done chan struct{} // closed when the serve loop exits

	mu       sync.Mutex
	closing  chan struct{} // non-nil after the first Close; closed once its outcome is stashed
	closeErr error
	serveErr error
}

// ServeDebug binds addr (e.g. "localhost:6060"; ":0" picks a free
// port) and serves Handler(opts) in a background goroutine. Bind
// failures are returned directly; failures of the serve loop itself
// are available from Err once Done is closed.
func ServeDebug(addr string, opts DebugOptions) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{
		srv:  &http.Server{Handler: Handler(opts)},
		ln:   ln,
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		err := ds.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil // orderly Close, not a failure
		}
		ds.mu.Lock()
		ds.serveErr = err
		ds.mu.Unlock()
		close(ds.done)
	}()
	return ds, nil
}

// Addr returns the bound address (useful with ":0").
func (ds *DebugServer) Addr() string { return ds.addr }

// Done is closed when the serve loop has exited — after Close, or
// after a serve failure. Select on it to detect an endpoint dying
// behind a long-running process.
func (ds *DebugServer) Done() <-chan struct{} { return ds.done }

// Err returns the serve-loop failure, nil while the loop is still
// running or when it exited by an orderly Close.
func (ds *DebugServer) Err() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.serveErr
}

// Close stops the server and waits for the serve loop to exit. It is
// idempotent: extra calls return the first outcome. The error is the
// close failure or, if the loop had already died on its own, the
// serve failure.
func (ds *DebugServer) Close() error {
	ds.mu.Lock()
	if ds.closing != nil {
		ch := ds.closing
		ds.mu.Unlock()
		<-ch
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.closeErr
	}
	ch := make(chan struct{})
	ds.closing = ch
	ds.mu.Unlock()

	err := ds.srv.Close()
	<-ds.done // wait for the serve loop even when Close itself errored
	ds.mu.Lock()
	if err == nil {
		err = ds.serveErr
	}
	ds.closeErr = err
	ds.mu.Unlock()
	close(ch)
	return err
}
