// Package odin is the public API of the ODIN visual data analytics system
// (Suprem et al., PVLDB 2020): automated drift detection and recovery for
// video analytics. It wraps the internal DETECTOR / SPECIALIZER / SELECTOR
// pipeline, the synthetic dash-cam substrate and the aggregation query
// engine behind a concurrent service layer: a Server owns the bootstrapped
// model substrate (DA-GAN projector, baseline detector, model manager,
// cluster state) and vends per-camera Stream sessions that share it — so a
// drift event recovered on one stream benefits every stream.
//
// Typical use:
//
//	srv, err := odin.New(odin.WithSeed(1), odin.WithPolicy(odin.PolicyDeltaBM))
//	if err != nil { ... }
//	if err := srv.Bootstrap(ctx, nil); err != nil { ... } // train DA-GAN + baseline
//
//	stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "cam-0", Workers: 4})
//	for res := range stream.Run(ctx, frames) { // sharded, results in frame order
//	    if res.Drift != nil { ... }
//	}
//
//	pq, err := srv.Prepare(odin.Select(odin.Count).UsingModel("odin").Where(odin.Class("car")))
//	out, err := pq.Execute(ctx, frames)            // compiled once, zero parse/plan per call
//	windows, err := stream.Subscribe(ctx, pq, odin.WindowOptions{Size: 25})
//	for wr := range windows { ... }                // standing query: one aggregate per window
//
// One-shot string SQL remains available via Server.Query / PrepareSQL
// ("SELECT COUNT(detections) FROM stream USING MODEL odin WHERE
// class='car'"). Single frames can also be processed synchronously with
// Stream.Process.
package odin

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/qos"
	"odin/internal/query"
	"odin/internal/synth"
)

// Re-exported domain types, so callers need only this package.
type (
	// Frame is one video frame with ground truth and domain metadata.
	Frame = synth.Frame
	// Box is an object bounding box.
	Box = synth.Box
	// Detection is one detected object with a confidence score.
	Detection = detect.Detection
	// Result is the outcome of processing one frame.
	Result = core.Result
	// Stats is pipeline telemetry (frames, outliers, drift events,
	// simulated throughput).
	Stats = core.Stats
	// Subset identifies one of the paper's five evaluation data subsets.
	Subset = synth.Subset
	// Domain is a (time-of-day, weather, location) environment condition.
	Domain = synth.Domain
	// QueryResult is the output of an aggregation query.
	QueryResult = query.Result
	// Fidelity is the per-frame treatment level of the QoS layer; every
	// Result carries the fidelity that served it (FidelityFull unless the
	// adaptive controller degraded the stream).
	Fidelity = qos.Fidelity
	// DropPolicy selects what a full admission queue (WithMaxQueue) does
	// with new frames.
	DropPolicy = qos.DropPolicy
)

// Fidelity ladder, re-exported (see WithAdaptiveFidelity). Ordered from
// most to least work per frame.
const (
	FidelityFull  = qos.Full
	FidelityLite  = qos.Lite
	FidelityCount = qos.Count
	FidelitySkip  = qos.Skip
)

// Admission-queue drop policies, re-exported (see WithDropPolicy).
const (
	DropBlock  = qos.Block
	DropNewest = qos.DropNewest
	DropOldest = qos.DropOldest
)

// ParseDropPolicy maps a CLI string ("block", "drop-newest",
// "drop-oldest") to a DropPolicy.
func ParseDropPolicy(s string) (DropPolicy, error) {
	return qos.ParseDropPolicy(s)
}

// Evaluation subsets, re-exported.
const (
	FullData  = synth.FullData
	DayData   = synth.DayData
	NightData = synth.NightData
	RainData  = synth.RainData
	SnowData  = synth.SnowData
)

// Object classes, re-exported.
const (
	ClassCar          = synth.ClassCar
	ClassTruck        = synth.ClassTruck
	ClassPerson       = synth.ClassPerson
	ClassTrafficLight = synth.ClassTrafficLight
	ClassSign         = synth.ClassSign
)

// Policy selects the SELECTOR's model-ensemble policy (§5.3).
type Policy int

// Selection policies.
const (
	// PolicyDeltaBM runs the models of every cluster whose ∆-band contains
	// the frame, falling back to KNN-W outside all bands (the default).
	PolicyDeltaBM Policy = iota
	// PolicyKNNU runs the k nearest models, unweighted.
	PolicyKNNU
	// PolicyKNNW runs the k nearest models, weighted inversely to distance.
	PolicyKNNW
	// PolicyMostRecent always runs the most recently trained model (the
	// "-SELECTOR" ablation).
	PolicyMostRecent
)

// String returns the policy's CLI name (the form ParsePolicy accepts).
func (p Policy) String() string {
	switch p {
	case PolicyDeltaBM:
		return "delta-bm"
	case PolicyKNNU:
		return "knn-u"
	case PolicyKNNW:
		return "knn-w"
	case PolicyMostRecent:
		return "most-recent"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI string ("delta-bm", "knn-u", "knn-w",
// "most-recent"; empty means the default) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "delta-bm":
		return PolicyDeltaBM, nil
	case "knn-u":
		return PolicyKNNU, nil
	case "knn-w":
		return PolicyKNNW, nil
	case "most-recent":
		return PolicyMostRecent, nil
	}
	return PolicyDeltaBM, fmt.Errorf("odin: unknown policy %q", s)
}

// corePolicy maps the public constant to the internal selector policy.
func (p Policy) corePolicy() (core.Policy, error) {
	switch p {
	case PolicyDeltaBM:
		return core.PolicyDeltaBM, nil
	case PolicyKNNU:
		return core.PolicyKNNU, nil
	case PolicyKNNW:
		return core.PolicyKNNW, nil
	case PolicyMostRecent:
		return core.PolicyMostRecent, nil
	}
	return core.PolicyDeltaBM, fmt.Errorf("odin: invalid policy %v", int(p))
}
