package bayes_test

import (
	"fmt"

	"darnet/internal/bayes"
)

// The combiner learns, from training observations, how much to trust each
// modality for each class — here parent B perfectly separates the two
// classes that parent A confuses.
func ExampleCombiner() {
	c, err := bayes.NewCombiner(2, 2, 2)
	if err != nil {
		panic(err)
	}
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	predA := []int{0, 0, 0, 0, 0, 0, 0, 0} // A always says class 0
	predB := []int{0, 1, 0, 1, 0, 1, 0, 1} // B is right every time
	if err := c.Fit(labels, [][]int{predA, predB}, 0.1); err != nil {
		panic(err)
	}
	class, err := c.Predict([]float64{0.9, 0.1}, []float64{0.2, 0.8})
	if err != nil {
		panic(err)
	}
	fmt.Println("fused class:", class)
	// Output: fused class: 1
}

// ProductCombine is the naive fusion the Bayesian Network is compared
// against: multiply the full-class distribution by the projected parent.
func ExampleProductCombine() {
	pFull := []float64{0.5, 0.3, 0.2}
	pIMU := []float64{0.9, 0.1}
	classMap := bayes.ClassMap{0, 0, 1} // classes 0,1 share IMU outcome 0
	post, err := bayes.ProductCombine(pFull, pIMU, classMap)
	if err != nil {
		panic(err)
	}
	fmt.Println("argmax:", bayes.ArgMax(post))
	// Output: argmax: 0
}
