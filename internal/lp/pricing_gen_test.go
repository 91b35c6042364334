package lp_test

import (
	"fmt"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// TestMaintainedReducedCostsOnGenFamilies is TestMaintainedReducedCosts's
// pricing check on the small te, cluster and lb instances, at the default
// refactor cadence and at a cadence of three.
func TestMaintainedReducedCostsOnGenFamilies(t *testing.T) {
	for _, in := range gen.All(1) {
		if in.Size != gen.Small {
			continue
		}
		for _, every := range []int{512, 3} {
			label := fmt.Sprintf("%s every %d", in.Name(), every)
			if lp.CheckMaintainedPrices(t, label, in.P, lp.Options{}.ReinvertEvery(every)) == 0 {
				t.Fatalf("%s: no pricing pass checked", label)
			}
		}
	}
}
