// Command dbgraph emits the explicit de Bruijn graph DG(d,k): its
// Graphviz rendering (Figure 1), adjacency listing, or structural
// summary.
//
//	dbgraph -d 2 -k 3                  # summary (default)
//	dbgraph -d 2 -k 3 -format dot      # Figure 1 as Graphviz
//	dbgraph -d 2 -k 3 -format adj      # adjacency listing
//	dbgraph -d 2 -k 3 -undirected ...  # Figure 1(b)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/word"
)

// maxSummaryVertices bounds the graphs -format summary accepts: its
// all-pairs BFS over DG(2,14)'s 16384 vertices takes a few seconds.
const maxSummaryVertices = 1 << 14

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbgraph:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbgraph", flag.ContinueOnError)
	d := fs.Int("d", 2, "alphabet size")
	k := fs.Int("k", 3, "word length (diameter)")
	undirected := fs.Bool("undirected", false, "build the undirected graph (Figure 1b)")
	format := fs.String("format", "summary", "summary | dot | adj")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind := graph.Directed
	if *undirected {
		kind = graph.Undirected
	}
	if *format == "summary" {
		// The summary's diameter and mean distance run a BFS from
		// every vertex: N² work, refused before the graph is built.
		if n, err := word.Count(*d, *k); err == nil && n > maxSummaryVertices {
			return fmt.Errorf("DG(%d,%d) has %d vertices: the summary's all-pairs BFS is %d² work, past its limit of %d vertices (-format dot and adj are linear)", *d, *k, n, n, maxSummaryVertices)
		}
	}
	g, err := graph.DeBruijn(kind, *d, *k)
	if err != nil {
		return err
	}
	switch *format {
	case "dot":
		fmt.Fprint(out, g.DOT(fmt.Sprintf("DG_%d_%d", *d, *k)))
	case "adj":
		for v := 0; v < g.NumVertices(); v++ {
			fmt.Fprintf(out, "%s:", g.Label(v))
			for _, u := range g.OutNeighbors(v) {
				fmt.Fprintf(out, " %s", g.Label(int(u)))
			}
			fmt.Fprintln(out)
		}
	case "summary":
		fmt.Fprintf(out, "%v DG(%d,%d)\n", kind, *d, *k)
		fmt.Fprintf(out, "vertices: %d\n", g.NumVertices())
		fmt.Fprintf(out, "edges:    %d\n", g.NumEdges())
		dia, avg, err := g.DistanceStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "diameter: %d\n", dia)
		fmt.Fprintf(out, "mean distance (off-diagonal): %.4f\n", avg)
		census := g.DegreeCensus()
		degs := make([]int, 0, len(census))
		for deg := range census {
			degs = append(degs, deg)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(degs)))
		fmt.Fprint(out, "degree census:")
		for _, deg := range degs {
			fmt.Fprintf(out, " %d×deg%d", census[deg], deg)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "connected: %v\n", g.IsConnected())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
