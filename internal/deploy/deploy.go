// Package deploy generates sensor network topologies for the MobiQuery
// simulator and derives density-dependent protocol parameters.
package deploy

import (
	"fmt"
	"math"
	"math/rand"

	"mobiquery/internal/geom"
)

// Topology is a static placement of sensor nodes; node i sits at
// Positions[i].
type Topology struct {
	Region    geom.Rect
	Positions []geom.Point
}

// Uniform places n nodes uniformly at random in region, the deployment
// model of the paper's evaluation (200 nodes in 450 m x 450 m).
func Uniform(region geom.Rect, n int, rng *rand.Rand) Topology {
	if n < 0 {
		panic(fmt.Sprintf("deploy: negative node count %d", n))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = region.UniformPoint(rng)
	}
	return Topology{Region: region, Positions: pts}
}

// Density returns nodes per square meter.
func (t Topology) Density() float64 {
	area := t.Region.Area()
	if area <= 0 {
		return 0
	}
	return float64(len(t.Positions)) / area
}

// SuggestPickupRadius returns a pickup-point anycast radius Rp such that a
// circle of that radius contains at least one backbone node with the given
// probability, assuming backbone nodes form a Poisson field with intensity
// backboneFraction * density. The paper notes Rp "may vary depending on the
// density of the sensor network"; this is that calculation.
func SuggestPickupRadius(t Topology, backboneFraction, confidence float64) float64 {
	if backboneFraction <= 0 || confidence <= 0 || confidence >= 1 {
		panic("deploy: backboneFraction must be positive and confidence in (0,1)")
	}
	lambda := t.Density() * backboneFraction
	if lambda <= 0 {
		return math.Inf(1)
	}
	// P(no backbone node within Rp) = exp(-lambda*pi*Rp^2) = 1 - confidence.
	return math.Sqrt(-math.Log(1-confidence) / (lambda * math.Pi))
}
