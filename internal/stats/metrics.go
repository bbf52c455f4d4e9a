package stats

import "fmt"

// Accuracy returns the fraction of predictions equal to their labels.
// It returns 0 for empty input and panics if the lengths differ (programmer
// error).
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("stats: Accuracy length mismatch %d vs %d", len(pred), len(labels)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// Histogram counts occurrences of each label in [0, classes).
func Histogram(labels []int, classes int) []int {
	h := make([]int, classes)
	for _, l := range labels {
		if l >= 0 && l < classes {
			h[l]++
		}
	}
	return h
}
