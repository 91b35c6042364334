package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// reference is an exact, unpartitioned optimum a workload's objective is
// divided by to give quality_pct. Computing one is untimed.
type reference struct {
	name string
	// key names the sizes the optimum depends on, so a committed value is
	// only used for the inputs it was computed from.
	key     func(sz sizes) string
	compute func(seed int64, sz sizes) (float64, error)
}

var (
	clusterRef = &reference{
		name:    "cluster-maxmin",
		key:     func(sz sizes) string { return fmt.Sprintf("clients=%d", sz.RefClients) },
		compute: serveReference,
	}
	teRef = &reference{
		name: "te-maxflow",
		key: func(sz sizes) string {
			return fmt.Sprintf("kdl=%g commodities=%d paths=4 demand=0.3 jitter=0.25", sz.TEScale, sz.TECommodities)
		},
		compute: teReference,
	}
	references = []*reference{clusterRef, teRef}
)

// refEntry is one committed optimum in refs.json.
type refEntry struct {
	Ref     string  `json:"ref"`
	Seed    int64   `json:"seed"`
	Key     string  `json:"key"`
	Optimum float64 `json:"optimum"`
}

// committedRefsJSON is bench/refs.json as of the build: the optima of seed
// 1 at the full sizes, written by -write-refs. Other seeds and sizes
// compute their reference in-process.
//
//go:embed refs.json
var committedRefsJSON []byte

func committedRefs() ([]refEntry, error) {
	var entries []refEntry
	if err := json.Unmarshal(committedRefsJSON, &entries); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return entries, nil
}

// lookup returns the committed optimum for (seed, sizes), or computes it.
func (r *reference) lookup(seed int64, sz sizes) (value float64, committed bool, err error) {
	entries, err := committedRefs()
	if err != nil {
		return 0, false, err
	}
	for _, e := range entries {
		if e.Ref == r.name && e.Seed == seed && e.Key == r.key(sz) {
			return e.Optimum, true, nil
		}
	}
	value, err = r.compute(seed, sz)
	if err != nil {
		return 0, false, fmt.Errorf("reference %s: %w", r.name, err)
	}
	return value, false, nil
}

// writeRefs recomputes every reference for seed 1 at the full sizes and
// writes them to path.
func writeRefs(path string) error {
	var entries []refEntry
	for _, r := range references {
		v, err := r.compute(1, fullSizes)
		if err != nil {
			return fmt.Errorf("reference %s: %w", r.name, err)
		}
		entries = append(entries, refEntry{Ref: r.name, Seed: 1, Key: r.key(fullSizes), Optimum: v})
	}
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkRefs recomputes every committed reference and fails when one is off
// by more than 1e-6 relative: the solver's optimum moved, so every
// quality_pct measured against the committed value is stale.
func checkRefs() error {
	entries, err := committedRefs()
	if err != nil {
		return err
	}
	for _, e := range entries {
		var ref *reference
		for _, r := range references {
			if r.name == e.Ref && r.key(fullSizes) == e.Key {
				ref = r
			}
		}
		if ref == nil {
			return fmt.Errorf("refs.json: no reference %q with key %q at the full sizes", e.Ref, e.Key)
		}
		v, err := ref.compute(e.Seed, fullSizes)
		if err != nil {
			return fmt.Errorf("reference %s: %w", e.Ref, err)
		}
		rel := math.Abs(v-e.Optimum) / math.Abs(e.Optimum)
		fmt.Printf("%-16s seed=%d committed=%.9g recomputed=%.9g rel=%.2e\n", e.Ref, e.Seed, e.Optimum, v, rel)
		if rel > 1e-6 {
			return fmt.Errorf("reference %s (seed %d) moved by %.2e relative", e.Ref, e.Seed, rel)
		}
	}
	return nil
}
