// Distributed aggregation on the deployed path. 33 web-server mirrors (the
// wc'98 topology) each summarize their local request stream in an
// ECM-sketch; a Coordinator pulls every site's summary and merges them into
// one sketch of the union stream, and its view answers sliding-window
// queries about global page popularity. Here the sites are in-process
// (NewLocalSite); cmd/ecmcoord runs the same Coordinator over NewHTTPSite
// pulls from ecmserve deployments. The run compares the merged view with one
// centralized sketch fed the whole stream, and reports the bytes each
// Refresh round pulled: a full baseline per site first, deltas after.
//
// The paper's Figure 5 (binary-tree aggregation) is reproduced by
// go run ./cmd/ecmbench -exp fig5.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"ecmsketch"
)

const (
	sites  = 33
	window = 1_000_000
	events = 300_000
)

func main() {
	params := ecmsketch.Params{
		Epsilon:      0.1,
		Delta:        0.1,
		WindowLength: window,
		Seed:         42, // identical seeds make the site sketches mergeable
	}
	central, err := ecmsketch.New(params)
	if err != nil {
		log.Fatal(err)
	}
	local := make([]*ecmsketch.Sketch, sites)
	members := make([]ecmsketch.Site, sites)
	for i := range local {
		if local[i], err = ecmsketch.New(params); err != nil {
			log.Fatal(err)
		}
		members[i] = ecmsketch.NewLocalSite(fmt.Sprintf("mirror-%02d", i), local[i])
	}
	co := ecmsketch.NewCoordinator(members...)

	// A wc'98-like stream: Zipf page popularity over 2^15 pages, spread
	// over two windows, with a few mirrors busier than the rest.
	rng := rand.New(rand.NewSource(98))
	pages := rand.NewZipf(rng, 1.2, 1, 1<<15-1)
	const gap = 2 * window / events // mean tick gap: the stream spans two windows
	var now ecmsketch.Tick
	feed := func(n int) {
		for i := 0; i < n; i++ {
			now += ecmsketch.Tick(rng.Intn(2*gap + 1))
			site := rng.Intn(sites)
			if rng.Intn(3) == 0 {
				site %= 4
			}
			page := pages.Uint64()
			local[site].Add(page, now)
			central.Add(page, now)
		}
		for _, sk := range local { // every mirror's clock reaches the same now
			sk.Advance(now)
		}
		central.Advance(now)
	}

	// Two rounds: the first pulls a full baseline from every mirror, the
	// second a delta of the cells changed since (with half the stream new
	// and the window sliding, that is nearly every cell).
	for round, n := range []int{events / 2, events / 2} {
		feed(n)
		if err := co.Refresh(); err != nil {
			log.Fatal(err)
		}
		st := co.LastRefresh()
		fmt.Printf("round %d: %d sites merged, pulled %.1f KiB (full pulls %d, delta pulls %d)\n",
			round+1, st.Contributors, float64(st.PulledBytes)/1024, co.FullPulls(), co.DeltaPulls())
	}
	view, err := co.View()
	if err != nil {
		log.Fatal(err)
	}

	// Compare the merged view with the centralized sketch for the hottest
	// pages, relative to the window's total arrivals.
	l1 := central.EstimateTotal(window)
	fmt.Printf("\nwindow holds ≈%.0f requests; merged view vs one centralized sketch:\n\n", l1)
	fmt.Printf("%8s %12s %12s %12s\n", "page", "central", "merged", "diff/‖a‖₁")
	var worst float64
	for page := uint64(0); page < 8; page++ {
		want, got := central.Estimate(page, window), view.Estimate(page, window)
		rel := math.Abs(got-want) / l1
		worst = math.Max(worst, rel)
		fmt.Printf("%8d %12.0f %12.0f %12.5f\n", page, want, got, rel)
	}
	fmt.Printf("\nworst difference %0.5f of ‖a‖₁ — configured ε was %.2f\n", worst, params.Epsilon)

	// Global self-join, reported relative to ‖a‖₁² as Theorem 2 bounds it.
	sjMerged, sjCentral := view.SelfJoin(window), central.SelfJoin(window)
	fmt.Printf("global F2: merged ≈ %.4g, centralized ≈ %.4g (difference %.5f of ‖a‖₁²)\n",
		sjMerged, sjCentral, math.Abs(sjMerged-sjCentral)/(l1*l1))
}
