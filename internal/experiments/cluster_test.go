package experiments

import (
	"strings"
	"testing"
)

func TestClusterRunSmall(t *testing.T) {
	rows, sum, err := ClusterRun(ClusterRunConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != clusterNodes {
		t.Fatalf("rows = %d, want %d", len(rows), clusterNodes)
	}
	var sent, answered, forwarded, fwdIn, shed int64
	for _, r := range rows {
		if r.Sent != r.Answered+r.Shed+r.Forwarded {
			t.Fatalf("node %s not conserved: %+v", r.Node, r)
		}
		sent += r.Sent
		answered += r.Answered
		forwarded += r.Forwarded
		fwdIn += r.ForwardedIn
		shed += r.Shed
	}
	if sent != answered+shed+forwarded {
		t.Fatalf("cluster not conserved: sent %d, answered %d, shed %d, forwarded %d",
			sent, answered, shed, forwarded)
	}
	// 4 nodes at R=2: every node misses about half the keys, so the
	// fabric must have carried load. Under closed-loop pressure some
	// origins shed on deadline after the peer already admitted the
	// forward, so hop-by-hop conservation is the inequality here (the
	// check oracle's unloaded steady scenario pins the exact identity).
	if forwarded == 0 {
		t.Fatal("nothing rode the fabric")
	}
	if forwarded > fwdIn {
		t.Fatalf("forwarded %d > forwarded_in %d", forwarded, fwdIn)
	}
	if sum.MeanHops <= 0 || sum.MeanHops > 10 {
		t.Fatalf("mean hops %.2f outside (0, idlen]", sum.MeanHops)
	}
	if sum.ClientP99MS <= 0 {
		t.Fatalf("client p99 %.3fms", sum.ClientP99MS)
	}
}

func TestClusterTableShape(t *testing.T) {
	tab, err := ClusterTable(ClusterRunConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if out == "" {
		t.Fatal("empty table render")
	}
	if !strings.Contains(out, "Σ") {
		t.Fatalf("table lacks the total row:\n%s", out)
	}
	if !strings.Contains(out, "hops_mean") {
		t.Fatalf("table lacks the hops column:\n%s", out)
	}
}
