package synth

import (
	"fmt"

	"odin/internal/tensor"
)

// TimeOfDay enumerates the BDD time-of-day attribute.
type TimeOfDay int

// Time-of-day values.
const (
	Dawn TimeOfDay = iota
	Day
	Night
)

// String returns the lowercase attribute name used in tables.
func (t TimeOfDay) String() string {
	switch t {
	case Dawn:
		return "dawn"
	case Day:
		return "day"
	case Night:
		return "night"
	}
	return "unknown"
}

// Weather enumerates the BDD weather attribute.
type Weather int

// Weather values.
const (
	Clear Weather = iota
	Foggy
	Overcast
	Rainy
	Snowy
)

// String returns the lowercase attribute name used in tables.
func (w Weather) String() string {
	switch w {
	case Clear:
		return "clear"
	case Foggy:
		return "foggy"
	case Overcast:
		return "overcast"
	case Rainy:
		return "rainy"
	case Snowy:
		return "snowy"
	}
	return "unknown"
}

// Location enumerates the BDD location attribute. The paper's DETECTOR
// found location unimportant for drift, so the renderer makes it a minor
// scene-composition attribute rather than a global appearance shift.
type Location int

// Location values.
const (
	City Location = iota
	Highway
	Residential
	OtherLocation
)

// String returns the lowercase attribute name used in tables.
func (l Location) String() string {
	switch l {
	case City:
		return "city"
	case Highway:
		return "highway"
	case Residential:
		return "residential"
	case OtherLocation:
		return "other"
	}
	return "unknown"
}

// Domain is one environment condition: the drift unit of the paper. The
// marginal distribution P(X) of frames differs across domains.
type Domain struct {
	Time     TimeOfDay
	Weather  Weather
	Location Location
}

// String renders "weather-time" (e.g. "rainy-day"), the subset naming used
// by Table 2.
func (d Domain) String() string { return d.Weather.String() + "-" + d.Time.String() }

// AllTimes lists every time-of-day value.
var AllTimes = []TimeOfDay{Dawn, Day, Night}

// AllWeathers lists every weather value.
var AllWeathers = []Weather{Clear, Foggy, Overcast, Rainy, Snowy}

// AllLocations lists every location value.
var AllLocations = []Location{City, Highway, Residential, OtherLocation}

// LabeledSubsets returns the paper's 15 weather×time subsets in a stable
// order (weather-major), as used by Table 2.
func LabeledSubsets() []Domain {
	var out []Domain
	for _, w := range AllWeathers {
		for _, t := range AllTimes {
			out = append(out, Domain{Time: t, Weather: w})
		}
	}
	return out
}

// Subset identifies one of the five evaluation data subsets the paper
// derives from the DETECTOR's clusters (§6.2, "BDD Clusters").
type Subset int

// The five evaluation subsets.
const (
	FullData Subset = iota
	DayData
	NightData
	RainData
	SnowData
)

// String returns the paper's subset name.
func (s Subset) String() string {
	switch s {
	case FullData:
		return "FULL-DATA"
	case DayData:
		return "DAY-DATA"
	case NightData:
		return "NIGHT-DATA"
	case RainData:
		return "RAIN-DATA"
	case SnowData:
		return "SNOW-DATA"
	}
	return "UNKNOWN"
}

// ParseSubset maps a CLI name ("full", "day", "night", "rain", "snow";
// empty means full) to its Subset.
func ParseSubset(s string) (Subset, error) {
	switch s {
	case "", "full":
		return FullData, nil
	case "day":
		return DayData, nil
	case "night":
		return NightData, nil
	case "rain":
		return RainData, nil
	case "snow":
		return SnowData, nil
	}
	return FullData, fmt.Errorf("synth: unknown subset %q (want full, day, night, rain or snow)", s)
}

// AllSubsets lists the five evaluation subsets in paper order.
var AllSubsets = []Subset{FullData, DayData, NightData, RainData, SnowData}

// Contains reports whether a domain belongs to the subset, mirroring the
// paper's definitions: DAY = clear day-time; NIGHT = night-time under any
// weather; RAIN = rainy or overcast outside night; SNOW = snowy outside
// night; FULL = everything.
func (s Subset) Contains(d Domain) bool {
	switch s {
	case FullData:
		return true
	case DayData:
		return d.Time == Day && d.Weather == Clear
	case NightData:
		return d.Time == Night
	case RainData:
		return d.Time != Night && (d.Weather == Rainy || d.Weather == Overcast)
	case SnowData:
		return d.Time != Night && d.Weather == Snowy
	}
	return false
}

// SampleDomain draws a domain from the subset's distribution. Day-time
// clear weather dominates FULL-DATA the way it dominates BDD (≈57% clear).
func (s Subset) SampleDomain(rng *tensor.RNG) Domain {
	loc := AllLocations[rng.Intn(len(AllLocations))]
	switch s {
	case DayData:
		return Domain{Time: Day, Weather: Clear, Location: loc}
	case NightData:
		// Night under any weather; clear dominates.
		w := Clear
		switch r := rng.Float64(); {
		case r < 0.70:
			w = Clear
		case r < 0.82:
			w = Overcast
		case r < 0.92:
			w = Rainy
		default:
			w = Snowy
		}
		return Domain{Time: Night, Weather: w, Location: loc}
	case RainData:
		t := Day
		if rng.Float64() < 0.15 {
			t = Dawn
		}
		w := Rainy
		if rng.Float64() < 0.5 {
			w = Overcast
		}
		return Domain{Time: t, Weather: w, Location: loc}
	case SnowData:
		t := Day
		if rng.Float64() < 0.2 {
			t = Dawn
		}
		return Domain{Time: t, Weather: Snowy, Location: loc}
	default: // FullData
		switch r := rng.Float64(); {
		case r < 0.51:
			return Domain{Time: Day, Weather: Clear, Location: loc}
		case r < 0.58:
			return Domain{Time: Dawn, Weather: Clear, Location: loc}
		case r < 0.78:
			return NightData.SampleDomain(rng)
		case r < 0.90:
			return RainData.SampleDomain(rng)
		default:
			return SnowData.SampleDomain(rng)
		}
	}
}
