package metrics_test

import (
	"fmt"

	"darnet/internal/metrics"
)

// A confusion matrix accumulates (true, predicted) pairs and reports the
// paper's evaluation quantities.
func ExampleConfusionMatrix() {
	m, err := metrics.NewConfusionMatrix([]string{"normal", "texting"})
	if err != nil {
		panic(err)
	}
	trueLabels := []int{0, 0, 0, 1, 1, 1, 1}
	predicted := []int{0, 0, 1, 1, 1, 1, 0}
	for i := range trueLabels {
		if err := m.Observe(trueLabels[i], predicted[i]); err != nil {
			panic(err)
		}
	}
	fmt.Println("top-1:", metrics.FormatPercent(m.Top1()))
	fmt.Println("texting recall:", metrics.FormatPercent(m.Recall(1)))
	fmt.Println("normal false positives:", m.FalsePositives(0))
	// Output:
	// top-1: 71.43%
	// texting recall: 75.00%
	// normal false positives: 1
}
