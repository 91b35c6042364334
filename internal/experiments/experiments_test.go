package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunSmall executes every registered experiment at Small
// scale: the full evaluation must be regenerable end to end.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(Small)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			for _, row := range res.Rows {
				if len(row) != len(res.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(res.Header), row)
				}
			}
			out := res.String()
			if !strings.Contains(out, res.Name) {
				t.Fatal("String() missing experiment name")
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, ok := Get("fig9"); !ok {
		t.Fatal("fig9 missing from registry")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unexpected registry hit")
	}
	names := map[string]bool{}
	for _, e := range Registry() {
		if names[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
		if e.Desc == "" {
			t.Fatalf("experiment %q has no description", e.Name)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "MEDIUM", "Large"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %g", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %g", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %g", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

// TestFig9ShapeHolds asserts the paper's qualitative claims on the Fig 9
// rows: POP variants are faster than exact (each row's best time of three
// runs) and achieve a high flow ratio, and the heuristics do not beat the
// exact optimum.
func TestFig9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, best := bestOf3(t, Fig9)
	var exactSecs float64
	for _, row := range res.Rows {
		label, ratio := row[0], row[3]
		secs := best[label]
		rf, _ := strconv.ParseFloat(ratio, 64)
		switch {
		case label == "Exact sol.":
			exactSecs = secs
			if rf < 0.999 {
				t.Fatalf("exact ratio %g != 1", rf)
			}
		case strings.HasPrefix(label, "POP-"):
			if secs >= exactSecs {
				t.Errorf("%s runtime %g not faster than exact %g", label, secs, exactSecs)
			}
			if rf < 0.5 || rf > 1.001 {
				t.Errorf("%s flow ratio %g out of range", label, rf)
			}
		default: // CSPF, NCFlow
			if rf > 1.001 {
				t.Errorf("%s beat the exact optimum: %g", label, rf)
			}
		}
	}
}

// bestOf3 runs an experiment three times and returns the first run with
// each row's best runtime (column 1) of the three, by label: a test that
// compares two rows' wall times then compares the rows, not one preempted
// sample of either.
func bestOf3(t *testing.T, exp func(Scale) (*Result, error)) (*Result, map[string]float64) {
	t.Helper()
	var first *Result
	best := map[string]float64{}
	for range 3 {
		res, err := exp(Small)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		}
		for _, row := range res.Rows {
			secs := parseDur(t, row[1])
			if old, ok := best[row[0]]; !ok || secs < old {
				best[row[0]] = secs
			}
		}
	}
	return first, best
}

func parseDur(t *testing.T, s string) float64 {
	t.Helper()
	switch {
	case strings.HasSuffix(s, "µs"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "µs"), 64)
		return v / 1e6
	case strings.HasSuffix(s, "ms"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v / 1e3
	case strings.HasSuffix(s, "s"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		return v
	}
	t.Fatalf("unparseable duration %q", s)
	return 0
}
