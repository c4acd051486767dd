package exp

import (
	"fmt"
	"io"

	"odin/internal/cluster"
	"odin/internal/core"
	"odin/internal/synth"
)

// Table2Result is the unsupervised-cluster × labelled-subset distribution
// matrix of Table 2.
type Table2Result struct {
	// Clusters discovered by the DETECTOR, in promotion order.
	ClusterLabels []string
	// Subsets lists the 15 weather×time domains.
	Subsets []synth.Domain
	// Share[cluster][subset] is the fraction of that subset's probe frames
	// assigned to the cluster.
	Share [][]float64
	// Unassigned[subset] is the out-of-band fraction.
	Unassigned  []float64
	NumClusters int
}

// RunTable2 streams scenes with gradual drift through the DETECTOR (DA-GAN
// projection + ∆-band clustering) and reports how the discovered clusters
// partition the 15 labelled weather×time subsets — the Table 2 experiment.
func RunTable2(c *Context, w io.Writer) Table2Result {
	dg := c.DAGAN()
	ccfg := cluster.DefaultConfig()
	det := core.NewDetector(dg, ccfg)

	// Gradual-drift workload: the four major environments are introduced
	// one after another, mirroring §6.2's "workload that exhibits gradual
	// drift by introducing images from the outlier subsets".
	order := []synth.Subset{synth.DayData, synth.NightData, synth.RainData, synth.SnowData}
	gen := synth.NewSceneGen(71, c.Scene)
	for _, sub := range order {
		for i := 0; i < c.P.Table2PerSubset; i++ {
			det.Clusters.Observe(det.Project(gen.GenerateSubset(sub).Image))
		}
	}

	subsets := synth.LabeledSubsets()
	clusters := det.Clusters.Permanent
	res := Table2Result{
		Subsets:     subsets,
		NumClusters: len(clusters),
		Unassigned:  make([]float64, len(subsets)),
	}
	greek := []string{"C-α", "C-β", "C-γ", "C-δ", "C-ε", "C-ζ", "C-η"}
	for i := range clusters {
		label := fmt.Sprintf("C-%d", i)
		if i < len(greek) {
			label = greek[i]
		}
		res.ClusterLabels = append(res.ClusterLabels, label)
	}
	res.Share = make([][]float64, len(clusters))
	for i := range res.Share {
		res.Share[i] = make([]float64, len(subsets))
	}

	// Probe each labelled subset with fresh frames; assign by nearest
	// containing cluster (falling back to nearest centroid, as SELECTOR
	// would).
	probeGen := synth.NewSceneGen(72, c.Scene)
	perSubset := 40
	if c.Scale == Full {
		perSubset = 100
	}
	for si, dom := range subsets {
		for i := 0; i < perSubset; i++ {
			f := probeGen.Generate(dom)
			z := det.Project(f.Image)
			best := -1
			bestD := 0.0
			for ci, cl := range clusters {
				if cl.Contains(z) {
					if d := cl.Distance(z); best == -1 || d < bestD {
						best = ci
						bestD = d
					}
				}
			}
			if best == -1 {
				res.Unassigned[si] += 1 / float64(perSubset)
				// Nearest-centroid fallback for the distribution table.
				for ci, cl := range clusters {
					if d := cl.Distance(z); best == -1 || d < bestD {
						best = ci
						bestD = d
					}
				}
			}
			if best >= 0 {
				res.Share[best][si] += 1 / float64(perSubset)
			}
		}
	}

	header := []string{"Cluster"}
	for _, d := range subsets {
		header = append(header, d.String())
	}
	t := NewTable(fmt.Sprintf("Table 2: Distribution of frames across %d discovered clusters", len(clusters)), header...)
	for ci := range clusters {
		row := []interface{}{res.ClusterLabels[ci]}
		for si := range subsets {
			row = append(row, Pct(res.Share[ci][si]))
		}
		t.Add(row...)
	}
	t.Render(w)
	fmt.Fprintf(w, "clusters discovered: %d (paper: 4); drift events: %d\n",
		len(clusters), len(det.Clusters.Events()))
	return res
}
