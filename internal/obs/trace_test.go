package obs

import (
	"strings"
	"testing"
)

func sampleTrace() Trace {
	return Trace{
		{Hop: 0, Cause: CauseInject, Site: "0010", Digit: -1},
		{Hop: 1, Cause: CauseForward, Site: "0101", Link: "L", Digit: 1},
		{Hop: 1, Cause: CauseReroute, Site: "0101", Detail: "next site 1011 failed"},
		{Hop: 2, Cause: CauseForward, Site: "1010", Link: "R", Digit: 0, Wildcard: true},
		{Hop: 2, Cause: CauseDeliver, Site: "1010", Digit: -1},
	}
}

func TestTraceSitesAndHops(t *testing.T) {
	tr := sampleTrace()
	sites := tr.Sites()
	want := []string{"0010", "0101", "1010"}
	if len(sites) != len(want) {
		t.Fatalf("sites = %v, want %v", sites, want)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Errorf("site %d = %q, want %q", i, sites[i], want[i])
		}
	}
	if tr.Hops() != 2 {
		t.Errorf("hops = %d, want 2", tr.Hops())
	}
}

func TestTraceRender(t *testing.T) {
	out := sampleTrace().String()
	for _, want := range []string{
		"inject  0010",
		"L(1)    0101",
		"reroute @0101  next site 1011 failed",
		"R(*→0)  1010",
		"✓ delivered at 1010 after 2 hops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRenderDrop(t *testing.T) {
	tr := Trace{
		{Hop: 0, Cause: CauseInject, Site: "00", Digit: -1},
		{Hop: 0, Cause: CauseDrop, Site: "00", Detail: "ttl exceeded", Digit: -1},
	}
	if out := tr.String(); !strings.Contains(out, "✗ dropped at 00 after 0 hops: ttl exceeded") {
		t.Errorf("drop render:\n%s", out)
	}
}
