// Command dtmgraph inspects the library's communication topologies: node
// and edge counts, diameter, and the Section V sparse cover statistics.
//
//	dtmgraph -topology hypercube -dim 6
//	dtmgraph -topology cluster -alpha 8 -beta 8 -gamma 8 -cover
package main

import (
	"flag"
	"fmt"
	"os"

	"dtm"
	"dtm/internal/stats"
)

func main() {
	var (
		topology  = flag.String("topology", "clique", "clique|line|ring|grid|hypercube|butterfly|cluster|star|tree|random")
		n         = flag.Int("n", 32, "node count")
		dim       = flag.Int("dim", 4, "dimension (hypercube, butterfly)")
		rows      = flag.Int("rows", 4, "grid rows")
		cols      = flag.Int("cols", 4, "grid cols")
		alpha     = flag.Int("alpha", 4, "cluster cliques / star rays")
		beta      = flag.Int("beta", 4, "cluster clique size / star ray length / tree branching")
		gamma     = flag.Int("gamma", 4, "cluster bridge weight")
		depth     = flag.Int("depth", 3, "tree depth")
		seed      = flag.Int64("seed", 1, "seed (random graph, cover)")
		showCover = flag.Bool("cover", false, "build and summarize the sparse cover hierarchy")
	)
	flag.Parse()
	g, err := build(*topology, *n, *dim, *rows, *cols, *alpha, *beta, *gamma, *depth, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmgraph:", err)
		os.Exit(1)
	}
	t := stats.NewTable("topology", "property", "value")
	t.AddRow("name", g.Name())
	t.AddRow("nodes", fmt.Sprint(g.N()))
	t.AddRow("edges", fmt.Sprint(g.M()))
	t.AddRow("diameter", fmt.Sprint(g.Diameter()))
	t.AddRow("min edge weight", fmt.Sprint(g.MinEdgeWeight()))
	t.AddRow("max edge weight", fmt.Sprint(g.MaxEdgeWeight()))
	if err := t.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtmgraph:", err)
		os.Exit(1)
	}
	if *showCover {
		ct, err := coverTable(g, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtmgraph: cover:", err)
			os.Exit(1)
		}
		if err := ct.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dtmgraph:", err)
			os.Exit(1)
		}
	}
}

// coverTable builds g's sparse cover hierarchy, checks its properties
// with Verify, and summarizes it one row per layer.
func coverTable(g *dtm.Graph, seed int64) (*stats.Table, error) {
	h, err := dtm.BuildCover(g, seed)
	if err != nil {
		return nil, err
	}
	if err := h.Verify(); err != nil {
		return nil, err
	}
	ct := stats.NewTable("sparse cover (verified)", "layer", "sub-layers", "clusters", "max weak diameter")
	for l, subs := range h.Layers {
		clusters := 0
		var maxWD dtm.Weight
		for _, sub := range subs {
			clusters += len(sub.Clusters)
			for _, cl := range sub.Clusters {
				if wd := h.WeakDiameter(cl); wd > maxWD {
					maxWD = wd
				}
			}
		}
		ct.AddRow(fmt.Sprint(l), fmt.Sprint(len(subs)), fmt.Sprint(clusters), fmt.Sprint(maxWD))
	}
	return ct, nil
}

func build(topology string, n, dim, rows, cols, alpha, beta, gamma, depth int, seed int64) (*dtm.Graph, error) {
	switch topology {
	case "clique":
		return dtm.Clique(n)
	case "line":
		return dtm.Line(n)
	case "ring":
		return dtm.Ring(n)
	case "grid":
		return dtm.Grid(rows, cols)
	case "hypercube":
		return dtm.Hypercube(dim)
	case "butterfly":
		return dtm.Butterfly(dim)
	case "cluster":
		return dtm.Cluster(dtm.ClusterSpec{Alpha: alpha, Beta: beta, Gamma: dtm.Weight(gamma)})
	case "star":
		return dtm.Star(dtm.StarSpec{Rays: alpha, RayLen: beta})
	case "tree":
		return dtm.Tree(beta, depth)
	case "random":
		return dtm.RandomConnected(n, n, 4, seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}
}
