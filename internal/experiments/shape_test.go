package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestFig15ShapeHolds: with resource splitting the flow must dominate the
// sharded variant at every k — the paper's Figure 15 claim.
func TestFig15ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Fig15(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		split, err1 := strconv.ParseFloat(row[1], 64)
		shard, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if shard > split {
			t.Fatalf("k=%s: sharded %g beat resource splitting %g", row[0], shard, split)
		}
	}
	// The gap must widen with k (collapse without resource splitting).
	firstShard, _ := strconv.ParseFloat(res.Rows[0][2], 64)
	lastShard, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if lastShard >= firstShard {
		t.Fatalf("sharded flow did not collapse with k: %g → %g", firstShard, lastShard)
	}
}

// TestFig2ShapeHolds: POP variants sit between Gandiva and exact on
// quality, and Gandiva is the fastest non-LP method.
func TestFig2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Fig2(Small)
	if err != nil {
		t.Fatal(err)
	}
	quality := map[string]float64{}
	for _, row := range res.Rows {
		q, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("unparseable quality in %v", row)
		}
		quality[row[0]] = q
	}
	if quality["Exact sol."] < 0.999 {
		t.Fatalf("exact quality %g != 1", quality["Exact sol."])
	}
	for _, label := range []string{"POP-2", "POP-4", "POP-8"} {
		q := quality[label]
		if q > 1.001 {
			t.Fatalf("%s beat exact: %g", label, q)
		}
		if q < quality["Gandiva"] {
			t.Fatalf("%s quality %g below Gandiva %g", label, q, quality["Gandiva"])
		}
	}
}

// TestFig13ShapeHolds: the exact MILP moves the least data among methods
// that reach the band, and POP is at least 10× faster than exact (each
// row's best time of three runs).
func TestFig13ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, best := bestOf3(t, Fig13)
	var exactMoves, popMoves float64
	var exactRuntime, popRuntime float64
	for _, row := range res.Rows {
		moves, _ := strconv.ParseFloat(row[2], 64)
		switch {
		case row[0] == "Exact sol.":
			exactMoves = moves
			exactRuntime = best[row[0]]
		case strings.HasPrefix(row[0], "POP-") && popRuntime == 0:
			popMoves = moves
			popRuntime = best[row[0]]
		}
	}
	if popMoves < exactMoves {
		t.Fatalf("POP moved less data (%g) than the exact optimum (%g)", popMoves, exactMoves)
	}
	if popRuntime*10 > exactRuntime {
		t.Fatalf("POP runtime %g not 10x below exact %g", popRuntime, exactRuntime)
	}
}

// TestSection51BoundDominatesMC re-asserts the bound/Monte-Carlo relation
// encoded in the sec51 table.
func TestSection51BoundDominatesMC(t *testing.T) {
	res, err := Section51(Small)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if !strings.Contains(row[3], "trials") {
			continue
		}
		found = true
		bound, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		empStr := strings.Fields(row[3])[0]
		emp, err := strconv.ParseFloat(empStr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if emp > bound+1e-9 {
			t.Fatalf("empirical %g exceeds bound %g", emp, bound)
		}
	}
	if !found {
		t.Fatal("no Monte Carlo row in sec51")
	}
}
