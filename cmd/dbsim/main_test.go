package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestSyncEngineUniform(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-d", "2", "-k", "5", "-messages", "200"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "delivered:  200") || !strings.Contains(out, "dropped:    0") {
		t.Errorf("output:\n%s", out)
	}
}

func TestPoliciesAndWorkloads(t *testing.T) {
	for _, policy := range []string{"first", "random", "least-loaded"} {
		for _, wl := range []string{"uniform", "hotspot", "bit-reversal"} {
			var b strings.Builder
			args := []string{"-d", "2", "-k", "4", "-messages", "50", "-policy", policy, "-workload", wl}
			if err := run(args, &b); err != nil {
				t.Fatalf("%s/%s: %v", policy, wl, err)
			}
			if !strings.Contains(b.String(), "policy "+policy) {
				t.Errorf("%s/%s output:\n%s", policy, wl, b.String())
			}
		}
	}
}

func TestFailAndAdaptive(t *testing.T) {
	var b strings.Builder
	args := []string{"-d", "2", "-k", "4", "-messages", "100", "-fail", "0011,1100", "-adaptive"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "failed sites: 2") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestDeflectEngine(t *testing.T) {
	for _, policy := range []string{"random", "min-increase", "layer-aware"} {
		var b strings.Builder
		args := []string{"-engine", "deflect", "-d", "2", "-k", "5", "-rate", "0.4", "-rounds", "60", "-deflect-policy", policy}
		if err := run(args, &b); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out := b.String()
		if !strings.Contains(out, "bufferless deflection") || !strings.Contains(out, "policy "+policy) {
			t.Errorf("%s output:\n%s", policy, out)
		}
		if !strings.Contains(out, "guard trips:  0") {
			t.Errorf("%s: guard tripped under oldest-first:\n%s", policy, out)
		}
	}
}

func TestDeflectEngineMetrics(t *testing.T) {
	var b strings.Builder
	args := []string{"-engine", "deflect", "-d", "2", "-k", "5", "-rate", "0.5", "-rounds", "80", "-metrics"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	injected := promValue(t, out, "dn_deflect_injected_total")
	delivered := promValue(t, out, "dn_deflect_delivered_total")
	guard := promValue(t, out, "dn_deflect_guard_trips_total")
	if injected == 0 || injected != delivered+guard {
		t.Errorf("injected %d != delivered %d + guard %d:\n%s", injected, delivered, guard, out)
	}
}

func TestDeflectEngineErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-engine", "deflect", "-deflect-policy", "nope"}, &b); err == nil {
		t.Error("accepted unknown deflect policy")
	}
	if err := run([]string{"-engine", "deflect", "-rate", "1.5"}, &b); err == nil {
		t.Error("accepted rate > 1")
	}
}

func TestUnidirectionalFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-unidirectional", "-d", "2", "-k", "4", "-messages", "50"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "uni-directional") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-policy", "nope"}, &b); err == nil {
		t.Error("accepted unknown policy")
	}
	if err := run([]string{"-workload", "nope"}, &b); err == nil {
		t.Error("accepted unknown workload")
	}
	if err := run([]string{"-engine", "nope"}, &b); err == nil {
		t.Error("accepted unknown engine")
	}
	if err := run([]string{"-fail", "xyz"}, &b); err == nil {
		t.Error("accepted unparsable failure address")
	}
	if err := run([]string{"-d", "1"}, &b); err == nil {
		t.Error("accepted d=1")
	}
}

func TestMetricsFlag(t *testing.T) {
	var b strings.Builder
	args := []string{"-d", "2", "-k", "5", "-messages", "300", "-fail", "00111,01010", "-adaptive", "-metrics"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# metrics") {
		t.Fatalf("no metrics section:\n%s", out)
	}
	sent := promValue(t, out, "dn_messages_sent_total")
	delivered := promValue(t, out, "dn_messages_delivered_total")
	dropped := promValue(t, out, "dn_messages_dropped_total")
	if sent != 300 {
		t.Errorf("sent = %d, want 300", sent)
	}
	if sent != delivered+dropped {
		t.Errorf("sent %d != delivered %d + dropped %d", sent, delivered, dropped)
	}
	byReason := int64(0)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `dn_drops_total{reason=`) {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			byReason += v
		}
	}
	if byReason != dropped {
		t.Errorf("drops by reason sum to %d, dropped counter says %d", byReason, dropped)
	}
}

func TestDebugAddrFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-d", "2", "-k", "4", "-messages", "50", "-debug-addr", "127.0.0.1:0"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "debug server on http://127.0.0.1:") {
		t.Errorf("output:\n%s", b.String())
	}
}

// promValue extracts an unlabelled counter value from Prometheus text.
func promValue(t *testing.T, out, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in output:\n%s", name, out)
	return 0
}
