package ecmsketch_test

import (
	"fmt"

	"ecmsketch"
)

// ExampleNew demonstrates the basic sliding-window frequency workflow.
func ExampleNew() {
	sk, err := ecmsketch.New(ecmsketch.Params{
		Epsilon:      0.01,
		Delta:        0.01,
		WindowLength: 100, // last 100 ticks
	})
	if err != nil {
		panic(err)
	}
	for t := ecmsketch.Tick(1); t <= 60; t++ {
		sk.AddString("/home", t)
	}
	for t := ecmsketch.Tick(61); t <= 120; t++ {
		sk.AddString("/cart", t)
	}
	// The window (20,120] holds 40 /home views and 60 /cart views.
	fmt.Printf("/home ≈ %.0f\n", sk.EstimateString("/home", 100))
	fmt.Printf("/cart ≈ %.0f\n", sk.EstimateString("/cart", 100))
	// Output:
	// /home ≈ 40
	// /cart ≈ 60
}

// ExampleMerge demonstrates order-preserving aggregation of site sketches.
func ExampleMerge() {
	params := ecmsketch.Params{
		Epsilon:      0.01,
		Delta:        0.01,
		WindowLength: 1000,
		Seed:         7, // sites must share the seed to be mergeable
	}
	siteA, _ := ecmsketch.New(params)
	siteB, _ := ecmsketch.New(params)
	for t := ecmsketch.Tick(1); t <= 50; t++ {
		siteA.Add(42, t)
		siteB.Add(42, t)
		siteB.Add(7, t)
	}
	global, err := ecmsketch.Merge(siteA, siteB)
	if err != nil {
		panic(err)
	}
	fmt.Printf("item 42 globally ≈ %.0f\n", global.Estimate(42, 1000))
	fmt.Printf("item 7 globally ≈ %.0f\n", global.Estimate(7, 1000))
	// Output:
	// item 42 globally ≈ 100
	// item 7 globally ≈ 50
}
