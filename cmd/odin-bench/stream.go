package main

import (
	"odin"
	"odin/internal/exp"
)

// The Fig9 drift stream through the public API, shared by the obs and
// restore experiments. (Serving throughput itself is measured by bench/'s
// steady_1cam workload; Run ≡ sequential Process is asserted by
// TestRunMatchesSequentialProcess and by that workload's fingerprint check.)

// streamBenchParams scales the stream: quick keeps it in CI-smoke range,
// full matches the paper's Fig9 stream length.
type streamBenchParams struct {
	bootFrames, bootEpochs, baselineEpochs, phaseLen int
}

func streamParams(scale exp.Scale) streamBenchParams {
	if scale == exp.Full {
		return streamBenchParams{bootFrames: 600, bootEpochs: 8, baselineEpochs: 40, phaseLen: 375}
	}
	return streamBenchParams{bootFrames: 150, bootEpochs: 2, baselineEpochs: 6, phaseLen: 60}
}

// fig9PublicStream rebuilds the paper's 4-phase drifting sequence (NIGHT,
// +DAY, +SNOW, +RAIN with unadjusted round-robin mixing) through the
// public API, one frame at a time so the interleaving matches
// exp.fig9Stream's shape.
func fig9PublicStream(srv *odin.Server, phaseLen int) []*odin.Frame {
	pools := [][]odin.Subset{
		{odin.NightData},
		{odin.NightData, odin.DayData},
		{odin.NightData, odin.DayData, odin.SnowData},
		{odin.NightData, odin.DayData, odin.SnowData, odin.RainData},
	}
	out := make([]*odin.Frame, 0, 4*phaseLen)
	idx := 0
	for _, pool := range pools {
		for i := 0; i < phaseLen; i++ {
			out = append(out, srv.GenerateFrames(pool[idx%len(pool)], 1)...)
			idx++
		}
	}
	return out
}
