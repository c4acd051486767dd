package exp

import (
	"context"
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/query"
	"odin/internal/synth"
)

// Table6Row is one configuration's aggregation-query outcome.
type Table6Row struct {
	Name      string
	CarAcc    float64
	TruckAcc  float64
	FPS       float64
	CarRed    float64 // data reduction (filter configs only)
	TruckRed  float64
	HasFilter bool
}

// Table6Result holds all configurations.
type Table6Result struct {
	Rows []Table6Row
}

// filterArch is the 3-conv lightweight filter's full-scale cost
// architecture (a few small conv layers at 416², §6.6).
func filterArch() detect.Arch {
	return detect.Arch{
		Name: "filter-3conv", InputH: 416, InputW: 416,
		Layers: []detect.ConvSpec{
			{In: 3, Out: 8, K: 3, Stride: 2},
			{In: 8, Out: 16, K: 3, Stride: 2},
			{In: 16, Out: 16, K: 3, Stride: 2},
		},
	}
}

// RunTable6 reproduces Table 6: aggregation-query accuracy and throughput
// for cars and trucks under (1) the static system, (2) ODIN with
// specialized models, (3) ODIN-HEAVY with per-cluster heavyweight models,
// (4) ODIN-FILTER with per-cluster specialized filters, and (5) ODIN-PP
// with a single unspecialized filter.
func RunTable6(c *Context, w io.Writer) Table6Result {
	set, ids := clusterSetFromSubsets(c)
	dg := c.DAGAN()
	enc := c.Encoder()

	// Specialist map for the selector.
	byCluster := make(map[int]*core.Model)
	var mostRecent *core.Model
	for _, s := range specSubsets {
		if id, ok := ids[s]; ok {
			m := &core.Model{
				Kind: detect.KindSpecialized, Det: c.Specialized(s),
				ClusterID: id, Cost: detect.CostOf(detect.KindSpecialized),
			}
			byCluster[id] = m
			mostRecent = m
		}
	}
	sel := core.Selector{Policy: core.PolicyDeltaBM, K: 4}
	odinModel := func(f *synth.Frame) []detect.Detection {
		z := dg.Project(enc(f.Image))
		choice := sel.Select(z, set, byCluster, mostRecent)
		if len(choice) == 0 {
			return c.Baseline().Detect(f.Image)
		}
		var sets [][]detect.Detection
		var weights []float64
		for _, wm := range choice {
			sets = append(sets, wm.Model.Det.Detect(f.Image))
			weights = append(weights, wm.Weight)
		}
		return core.FuseDetections(sets, weights)
	}
	staticModel := func(f *synth.Frame) []detect.Detection {
		return c.Baseline().Detect(f.Image)
	}

	// ODIN-HEAVY: per-cluster heavyweight models. To keep the quick scale
	// tractable only the two dominant clusters (day, night) get heavy
	// specialists; other frames fall back to the baseline.
	heavy := make(map[int]*detect.GridDetector)
	heavySubsets := []synth.Subset{synth.DayData, synth.NightData}
	if c.Scale == Full {
		heavySubsets = specSubsets
	}
	for _, s := range heavySubsets {
		id, ok := ids[s]
		if !ok {
			continue
		}
		gen := synth.NewSceneGen(700+uint64(s), c.Scene)
		cfg := detect.YOLOConfig(c.Scene.H, c.Scene.W)
		cfg.Seed = 800 + uint64(s)
		d := detect.NewGridDetector(cfg)
		d.Fit(detect.SamplesFromFrames(gen.Dataset(s, c.P.TrainFrames)), c.P.TrainEpochs, 16)
		heavy[id] = d
		c.logf("trained ODIN-HEAVY(%v)", s)
	}
	heavyModel := func(f *synth.Frame) []detect.Detection {
		z := dg.Project(enc(f.Image))
		cs, _ := set.NearestRaw(z, 1)
		if len(cs) > 0 {
			if d, ok := heavy[cs[0].ID]; ok {
				return d.Detect(f.Image)
			}
		}
		return c.Baseline().Detect(f.Image)
	}

	// Filters: specialized per cluster (ODIN-FILTER) vs one unspecialized
	// (ODIN-PP), per class.
	gen := synth.NewSceneGen(710, c.Scene)
	trainFilter := func(class int, s synth.Subset, seed uint64) *query.FilterNet {
		fn := query.NewFilterNet(class, c.Scene.H, c.Scene.W, seed)
		fn.Fit(gen.Dataset(s, c.P.TrainFrames/2), c.P.FilterEpochs, 16)
		return fn
	}
	specFilters := map[int]map[int]*query.FilterNet{} // class → clusterID → filter
	ppFilters := map[int]*query.FilterNet{}           // class → filter
	for _, class := range []int{synth.ClassCar, synth.ClassTruck} {
		ppFilters[class] = trainFilter(class, synth.FullData, 900+uint64(class))
		specFilters[class] = map[int]*query.FilterNet{}
		for _, s := range heavySubsets {
			if id, ok := ids[s]; ok {
				specFilters[class][id] = trainFilter(class, s, 920+uint64(class)*10+uint64(s))
			}
		}
	}
	specializedFilter := func(class int) query.FilterFunc {
		return func(f *synth.Frame) bool {
			z := dg.Project(enc(f.Image))
			cs, _ := set.NearestRaw(z, 1)
			if len(cs) > 0 {
				if fn, ok := specFilters[class][cs[0].ID]; ok {
					return fn.Pass(f)
				}
			}
			return ppFilters[class].Pass(f)
		}
	}

	// Query stream: the drifting FULL distribution.
	streamGen := synth.NewSceneGen(93, c.Scene)
	frames := streamGen.Dataset(synth.FullData, c.P.Table6Frames)

	eng := query.NewEngine(query.DefaultMinScore)
	eng.RegisterModel("yolo", staticModel)
	eng.RegisterModel("yolo_specialized", odinModel)
	eng.RegisterModel("yolo_heavy", heavyModel)
	eng.RegisterFilter("car_filter", specializedFilter(synth.ClassCar))
	eng.RegisterFilter("truck_filter", specializedFilter(synth.ClassTruck))
	eng.RegisterFilter("car_filter_pp", ppFilters[synth.ClassCar].Pass)
	eng.RegisterFilter("truck_filter_pp", ppFilters[synth.ClassTruck].Pass)

	// Simulated throughput per configuration, from the cost model.
	dev := detect.PaperDevice()
	tYOLO := 1 / detect.CostOf(detect.KindYOLO).FPS
	tSpec := 1 / detect.CostOf(detect.KindSpecialized).FPS
	tFilter := 1 / dev.FPS(filterArch())
	fpsOf := func(modelTime, reduction float64, filtered bool) float64 {
		t := modelTime * (1 - reduction)
		if filtered {
			t += tFilter
		}
		return 1 / t
	}

	type config struct {
		name   string
		model  string
		filter map[int]string // class → filter name ("" = none)
		mTime  float64
	}
	configs := []config{
		{"Static", "yolo", map[int]string{synth.ClassCar: "", synth.ClassTruck: ""}, tYOLO},
		{"ODIN", "yolo_specialized", map[int]string{synth.ClassCar: "", synth.ClassTruck: ""}, tSpec},
		{"ODIN-HEAVY", "yolo_heavy", map[int]string{synth.ClassCar: "", synth.ClassTruck: ""}, tYOLO * 1.2},
		{"ODIN-FILTER", "yolo_specialized", map[int]string{synth.ClassCar: "car_filter", synth.ClassTruck: "truck_filter"}, tSpec},
		{"ODIN-PP", "yolo_specialized", map[int]string{synth.ClassCar: "car_filter_pp", synth.ClassTruck: "truck_filter_pp"}, tSpec},
	}

	classes := map[int]string{synth.ClassCar: "car", synth.ClassTruck: "truck"}
	var res Table6Result
	for _, cf := range configs {
		row := Table6Row{Name: cf.name}
		var reductions []float64
		for _, class := range []int{synth.ClassCar, synth.ClassTruck} {
			var sql string
			if cf.filter[class] == "" {
				sql = fmt.Sprintf("SELECT COUNT(detections) FROM bdd USING MODEL %s WHERE class='%s'",
					cf.model, classes[class])
			} else {
				sql = fmt.Sprintf(
					"SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER %s) USING MODEL %s WHERE class='%s'",
					cf.filter[class], cf.model, classes[class])
				row.HasFilter = true
			}
			out, err := eng.Run(context.Background(), sql, frames)
			if err != nil {
				panic(fmt.Sprintf("table6: %v", err))
			}
			acc := query.QueryAccuracy(out.PerFrame, query.TrueCounts(frames, class))
			red := out.DataReduction()
			reductions = append(reductions, red)
			if class == synth.ClassCar {
				row.CarAcc, row.CarRed = acc, red
			} else {
				row.TruckAcc, row.TruckRed = acc, red
			}
		}
		meanRed := (reductions[0] + reductions[1]) / 2
		row.FPS = fpsOf(cf.mTime, ifFilter(row.HasFilter, meanRed, 0), row.HasFilter)
		res.Rows = append(res.Rows, row)
	}

	t := NewTable("Table 6: Aggregation queries and lightweight filters",
		"Architecture", "Car acc", "Truck acc", "FPS", "Car reduction", "Truck reduction")
	for _, r := range res.Rows {
		carRed, truckRed := "-", "-"
		if r.HasFilter {
			carRed, truckRed = Pct(r.CarRed), Pct(r.TruckRed)
		}
		t.Add(r.Name, r.CarAcc, r.TruckAcc, fmt.Sprintf("%.0f", r.FPS), carRed, truckRed)
	}
	t.Render(w)
	return res
}

func ifFilter(has bool, a, b float64) float64 {
	if has {
		return a
	}
	return b
}
