package lp

import (
	"reflect"
	"slices"
	"testing"
)

// TestOptionsSurface pins the exported fields of Options. Every field is a
// configuration the suites and the benchmark must cover, and all but one
// caller pass the zero value, so the set does not grow: a new option
// displaces an old one, here, in the same change.
func TestOptionsSurface(t *testing.T) {
	want := []string{"MaxIters", "TolFeas", "TolOpt", "TolPivot", "Scale", "WarmBasis", "Dual", "Obs"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported Options fields = %v, want exactly %v", got, want)
	}
}
