package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dn_sent_total").Add(11)
	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "dn_sent_total 11") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, "\"dn_sent_total\": 11") {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

func TestServeDebugBindFailure(t *testing.T) {
	// Occupy a port, then ask ServeDebug for the same one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ServeDebug(ln.Addr().String(), DebugOptions{}); err == nil {
		t.Fatal("bind to an occupied port succeeded")
	}
}

func TestServeDebugCloseIdempotent(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.Close(); err != nil {
			t.Fatalf("Close #%d after orderly shutdown: %v", i+2, err)
		}
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after Close returned")
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("orderly Close surfaced a serve error: %v", err)
	}
	// The socket must actually be released.
	if _, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond); err == nil {
		t.Fatal("address still accepting connections after Close")
	}
}

// TestServeDebugCloseConcurrent pins the shared-outcome contract:
// however many callers race into Close, all of them wait for the serve
// loop to exit and return the same outcome as the call that won.
func TestServeDebugCloseConcurrent(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { errs <- srv.Close() }()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Close: %v", err)
		}
		select {
		case <-srv.Done():
		default:
			t.Fatal("Close returned before the serve loop exited")
		}
	}
}

func TestServeDebugSurfacesServeFailure(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the listener out from under the serve loop: Serve returns a
	// real error (not ErrServerClosed), and the wrapper must surface it
	// instead of swallowing it — the bug this type exists to fix.
	srv.ln.Close()
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after its listener died")
	}
	if err := srv.Err(); err == nil {
		t.Fatal("serve failure swallowed: Err() is nil after the listener died")
	}
	// Close after the loop already died reports that same failure, and
	// stays idempotent.
	if err := srv.Close(); err == nil {
		t.Fatal("Close after serve failure must report it")
	}
	if err := srv.Close(); err == nil {
		t.Fatal("second Close must report the same failure")
	}
}

func TestServeDebugOptsTraceEndpoints(t *testing.T) {
	reg := NewRegistry()
	traces := NewTraceBuffer(4)
	tr := NewReqTrace(0xfeed, "route", "undirected", time.Unix(0, 0))
	tr.SetOutcome("answered")
	traces.Add(tr)
	flight := NewFlightRecorder(8)
	flight.Record(FlightEvent{Kind: FlightMetric, Name: "shed_rate", Value: 0.1, TimeNs: 1})
	flight.Trigger("shed_spike", "test storm", 0.9)

	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{Registry: reg, Traces: traces, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	getJSON := func(path string, v any) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: content type %q", path, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}

	var ts TracesSnapshot
	getJSON("/debug/traces", &ts)
	if ts.Total != 1 || len(ts.Traces) != 1 || ts.Traces[0].ID != 0xfeed {
		t.Errorf("/debug/traces = %+v", ts)
	}
	var fs FlightSnapshot
	getJSON("/debug/flight", &fs)
	if !fs.Frozen || fs.Trigger == nil || fs.Trigger.Name != "shed_spike" {
		t.Errorf("/debug/flight = %+v", fs)
	}
}

func TestServeDebugOptsNilComponents(t *testing.T) {
	// Every component optional: nil traces/flight serve empty documents.
	srv, err := ServeDebug("127.0.0.1:0", DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/traces", "/debug/flight"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}
}
