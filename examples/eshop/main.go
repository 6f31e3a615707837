// E-shop ranking: the introduction's third motivating scenario — "ranking
// products in a cloud-based e-shop, based on the number of recent visits of
// each product" — using a COUNT-BASED window: the ranking always reflects
// the last N visits, regardless of how bursty traffic is. A dyadic
// Hierarchy (Section 6.1) finds the leaderboard by group testing over the
// catalog's id space, without scanning the catalog or keeping a candidate
// list: every product above a share of the window is found (Theorem 5).
//
// Run with: go run ./examples/eshop
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ecmsketch"
)

func main() {
	const (
		lastVisits = 50_000 // rank over the most recent 50k visits
		catalog    = 20_000 // product ids 0..catalog, inside a 15-bit domain
		phi        = 0.01   // candidates: every product with ≥ 1% of the window
	)
	h, err := ecmsketch.NewHierarchy(ecmsketch.HierarchyParams{
		Sketch: ecmsketch.Params{
			Epsilon:      0.01,
			Delta:        0.05,
			Model:        ecmsketch.CountBased,
			WindowLength: lastVisits,
		},
		DomainBits: 15,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	var visitSeq ecmsketch.Tick // count-based windows tick per arrival

	// Catalog of 20k products with Zipf popularity; a "flash sale" later
	// rotates which products are hot.
	zipf := rand.NewZipf(rng, 1.2, 8, catalog)
	visit := func(n int, saleItem uint64) {
		for i := 0; i < n; i++ {
			visitSeq++
			product := zipf.Uint64()
			if saleItem != 0 && rng.Intn(4) == 0 {
				product = saleItem
			}
			if err := h.Add(product, visitSeq); err != nil {
				log.Fatal(err)
			}
		}
	}
	leaderboard := func(phase string) {
		fmt.Printf("[%s] after %d visits, top products over the last %d visits:\n",
			phase, visitSeq, ecmsketch.Tick(lastVisits))
		top, err := h.HeavyHitters(phi, lastVisits)
		if err != nil {
			log.Fatal(err)
		}
		for rank, it := range top[:min(5, len(top))] {
			fmt.Printf("   #%d product-%05d ≈ %6.0f visits\n", rank+1, it.Key, it.Estimate)
		}
	}

	visit(80_000, 0)
	leaderboard("steady state")

	fmt.Println()
	visit(40_000, 777) // flash sale on product 777: 25% of traffic
	leaderboard("flash sale")

	fmt.Println()
	visit(60_000, 0) // sale over; its visits age out of the last-50k window
	leaderboard("sale expired")

	fmt.Printf("\nsketch memory: %.1f KiB for a 20k-product catalog (%d dyadic levels)\n",
		float64(h.MemoryBytes())/1024, h.DomainBits())
	fmt.Println("note: count-based windows rank by recency of *visits*, not wall-clock —")
	fmt.Println("a quiet night never dilutes the leaderboard.")
}
