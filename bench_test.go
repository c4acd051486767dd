package odin_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment at
// Quick scale and reports the headline numbers the paper reports as custom
// benchmark metrics (e.g. mAP×1000, F1×100, FPS, MB), so
// `go test -bench=. -benchmem` regenerates every result series.
//
// Experiments share one lazily initialised context, so models trained for
// an early benchmark are reused by later ones. Full-scale runs:
// `go run ./cmd/odin-bench -scale full`.

import (
	"io"
	"sync"
	"testing"

	"odin/internal/exp"
)

var (
	benchCtx  *exp.Context
	benchOnce sync.Once
)

func ctxForBench() *exp.Context {
	benchOnce.Do(func() {
		benchCtx = exp.NewContext(exp.Quick)
	})
	return benchCtx
}

func BenchmarkFigure1MotivatingExample(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig1(c, io.Discard)
		b.ReportMetric(r.StaticMAP*1000, "static-mAPx1000")
		b.ReportMetric(r.OdinMAP*1000, "odin-mAPx1000")
		b.ReportMetric(r.OdinFPS/r.StaticFPS, "speedup")
		b.ReportMetric(r.StaticMemMB/r.OdinMemMB, "mem-ratio")
	}
}

func BenchmarkFigure2LatentSpaces(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig2(c, io.Discard)
		b.ReportMetric(r.AECycle, "ae-cycle")
		b.ReportMetric(r.AAECycle, "aae-cycle")
		b.ReportMetric(r.DGCycle, "dagan-cycle")
		b.ReportMetric(r.DGRecon*1000, "dagan-reconx1000")
	}
}

func BenchmarkFigure4DeltaBand(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig4(c, io.Discard)
		b.ReportMetric(r.Band.Lo, "band-lo")
		b.ReportMetric(r.Band.Hi, "band-hi")
		b.ReportMetric(r.InBand*100, "mass-in-band-pct")
	}
}

func BenchmarkFigure5ProjectionFailure(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig5(c, io.Discard)
		b.ReportMetric(r.OutlierErr/r.InlierErr, "outlier-inlier-ratio")
	}
}

func BenchmarkTable1DriftDetection(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable1(c, io.Discard)
		last := len(r.Fractions) - 1
		b.ReportMetric(r.MNIST["DG"][last]*100, "mnist-dg-f1@50x100")
		b.ReportMetric(r.MNIST["LOF"][last]*100, "mnist-lof-f1@50x100")
		b.ReportMetric(r.CIFAR["DG"][last]*100, "cifar-dg-f1@50x100")
		b.ReportMetric(r.CIFAR["AE"][last]*100, "cifar-ae-f1@50x100")
	}
}

func BenchmarkTable2ClusterDiscovery(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable2(c, io.Discard)
		b.ReportMetric(float64(r.NumClusters), "clusters")
	}
}

func BenchmarkFigure8Specialization(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig8(c, io.Discard)
		// NIGHT-DATA is index 2: the paper's 2x specialization headline.
		b.ReportMetric(r.YOLO[2]*1000, "yolo-night-mAPx1000")
		b.ReportMetric(r.Specialized[2]*1000, "spec-night-mAPx1000")
		b.ReportMetric(r.Specialized[2]/max(r.YOLO[2], 1e-9), "night-gain")
	}
}

func BenchmarkTable3CrossSubset(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable3(c, io.Discard)
		// Day specialist on DAY-DATA (own) vs NIGHT-DATA (cross).
		b.ReportMetric(r.Cross[0][1]*1000, "day-spec-own-mAPx1000")
		b.ReportMetric(r.Cross[0][2]*1000, "day-spec-night-mAPx1000")
	}
}

func BenchmarkTable4CostModel(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable4(c, io.Discard)
		yolo := r.Costs[0]
		spec := r.Costs[1]
		b.ReportMetric(yolo.FPS, "yolo-fps")
		b.ReportMetric(spec.FPS, "spec-fps")
		b.ReportMetric(yolo.SizeMB, "yolo-mb")
		b.ReportMetric(spec.SizeMB, "spec-mb")
	}
}

func BenchmarkTable5SelectionPolicies(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable5(c, io.Discard)
		// DAY-DATA row (index 1).
		b.ReportMetric(r.Baseline[1]*1000, "baseline-day-mAPx1000")
		b.ReportMetric(r.KNNU[1]*1000, "knnu-day-mAPx1000")
		b.ReportMetric(r.KNNW[1]*1000, "knnw-day-mAPx1000")
		b.ReportMetric(r.DeltaBM[1]*1000, "deltabm-day-mAPx1000")
	}
}

func BenchmarkFigure9EndToEnd(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunFig9(c, io.Discard)
		lastW := len(r.Series[0]) - 1
		b.ReportMetric(r.Series[0][lastW]*1000, "baseline-final-mAPx1000")
		b.ReportMetric(r.Series[1][lastW]*1000, "deltabm-final-mAPx1000")
		b.ReportMetric(r.FPS[1], "odin-fps")
		b.ReportMetric(r.MemMB[1], "odin-mb")
	}
}

func BenchmarkTable6AggregationQueries(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable6(c, io.Discard)
		for _, row := range r.Rows {
			switch row.Name {
			case "Static":
				b.ReportMetric(row.CarAcc*100, "static-car-accx100")
			case "ODIN":
				b.ReportMetric(row.CarAcc*100, "odin-car-accx100")
				b.ReportMetric(row.FPS, "odin-query-fps")
			case "ODIN-FILTER":
				b.ReportMetric(row.TruckRed*100, "filter-truck-reduction-pct")
			}
		}
	}
}

func BenchmarkTable7Ablation(b *testing.B) {
	c := ctxForBench()
	for i := 0; i < b.N; i++ {
		r := exp.RunTable7(c, io.Discard)
		b.ReportMetric(r.MAP[0]*1000, "endtoend-mAPx1000")
		b.ReportMetric(r.MAP[1]*1000, "noselector-mAPx1000")
		b.ReportMetric(r.MAP[2]*1000, "baseline-mAPx1000")
		b.ReportMetric(r.FPS[0], "endtoend-fps")
	}
}
