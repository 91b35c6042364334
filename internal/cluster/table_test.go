package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func tableJob(id int, rnd *rand.Rand) Job {
	return Job{ID: id, Throughput: []float64{rnd.Float64(), rnd.Float64()}, Weight: 1, Scale: float64(1 + rnd.Intn(3))}
}

// checkTable compares the table, after a Commit that mirrors every block
// move onto a side column, against the model map: same members in ascending
// order, the side column still aligned, and fresh naming exactly the rows
// whose data is new since the previous commit.
func checkTable(t *testing.T, tab *Table, model map[int]Job, side *[]float64, changed map[int]bool) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model holds %d", tab.Len(), len(model))
	}
	if n := max(len(*side), tab.Len()); n > len(*side) {
		*side = append(*side, make([]float64, n-len(*side))...)
	}
	fresh := tab.Commit(func(dst, src, n int) { copy((*side)[dst:], (*side)[src:src+n]) })
	jobs := tab.Jobs()
	*side = (*side)[:len(jobs)]
	if len(jobs) != len(model) {
		t.Fatalf("%d rows after commit, model holds %d", len(jobs), len(model))
	}
	var wantFresh []int
	for pos, j := range jobs {
		if pos > 0 && jobs[pos-1].ID >= j.ID {
			t.Fatalf("rows not ascending at %d: %d after %d", pos, j.ID, jobs[pos-1].ID)
		}
		want, ok := model[j.ID]
		if !ok || !want.Equal(j) {
			t.Fatalf("row %d holds job %d = %+v, model has %+v (present %v)", pos, j.ID, j, want, ok)
		}
		if got, ok := tab.Get(j.ID); !ok || !got.Equal(j) {
			t.Fatalf("Get(%d) = %+v, %v", j.ID, got, ok)
		}
		if changed[j.ID] {
			wantFresh = append(wantFresh, pos)
			(*side)[pos] = j.Throughput[0] // the owner recomputes fresh rows
		}
		if (*side)[pos] != j.Throughput[0] {
			t.Fatalf("side column lost alignment at row %d (job %d)", pos, j.ID)
		}
	}
	if !slices.Equal(fresh, wantFresh) {
		t.Fatalf("fresh = %v, want %v", fresh, wantFresh)
	}
	clear(changed)
}

// TestTableMatchesMap drives random upsert/remove/update chains — including
// remove-then-re-add and add-then-remove inside one commit window — against
// a plain map.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var tab Table
		model := map[int]Job{}
		changed := map[int]bool{}
		var side []float64
		for round := 0; round < 40; round++ {
			for op := rnd.Intn(12); op > 0; op-- {
				id := rnd.Intn(30)
				old, held := model[id]
				switch rnd.Intn(3) {
				case 0: // upsert new data
					j := tableJob(id, rnd)
					want := Arrived
					if held {
						want = Updated
					}
					if got := tab.Upsert(j); got != want {
						t.Fatalf("seed %d: Upsert(%d) = %v, want %v", seed, id, got, want)
					}
					model[id], changed[id] = j, true
				case 1: // re-submit identical data
					if held {
						if got := tab.Upsert(old); got != Unchanged {
							t.Fatalf("seed %d: identical Upsert(%d) = %v", seed, id, got)
						}
					}
				case 2:
					if got := tab.Remove(id); got != held {
						t.Fatalf("seed %d: Remove(%d) = %v, model held %v", seed, id, got, held)
					}
					delete(model, id)
					delete(changed, id)
				}
			}
			if _, ok := tab.Get(1000); ok {
				t.Fatal("Get of an id never added")
			}
			checkTable(t, &tab, model, &side, changed)
		}
	}
}

// TestTableReconcile: Reconcile leaves exactly the active set, reports its
// order, and routes every difference through the callbacks once.
func TestTableReconcile(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var tab Table
	model := map[int]Job{}
	for round := 0; round < 30; round++ {
		next := map[int]Job{}
		for id, j := range model {
			switch rnd.Intn(4) {
			case 0: // departs
			case 1:
				next[id] = tableJob(id, rnd)
			default:
				next[id] = j
			}
		}
		for a := rnd.Intn(5); a > 0; a-- {
			id := rnd.Intn(60)
			next[id] = tableJob(id, rnd)
		}
		active := make([]Job, 0, len(next))
		for _, j := range next {
			active = append(active, j)
		}
		shuffled := round%3 == 2
		if !shuffled {
			sort.Slice(active, func(a, b int) bool { return active[a].ID < active[b].ID })
		}
		if round%5 == 4 { // a pending arrival the active set does not name
			tab.Upsert(tableJob(1000+round, rnd))
		}

		ups, rms := 0, 0
		ordered := tab.Reconcile(active,
			func(j Job) {
				if tab.Upsert(j) != Unchanged {
					ups++
				}
			},
			func(id int) bool { rms++; return tab.Remove(id) })
		wantUps, wantRms := 0, 0
		for id, j := range next {
			if old, ok := model[id]; !ok || !old.Equal(j) {
				wantUps++
			}
		}
		for id := range model {
			if _, ok := next[id]; !ok {
				wantRms++
			}
		}
		if round%5 == 4 {
			wantRms++
		}
		if ups != wantUps || rms != wantRms {
			t.Fatalf("round %d: %d upserts, %d removes; want %d, %d", round, ups, rms, wantUps, wantRms)
		}
		sortedNow := sort.SliceIsSorted(active, func(a, b int) bool { return active[a].ID < active[b].ID })
		if ordered != sortedNow {
			t.Fatalf("round %d: ordered = %v for an active set with sorted = %v", round, ordered, sortedNow)
		}
		tab.Commit(nil)
		jobs := tab.Jobs()
		if len(jobs) != len(next) {
			t.Fatalf("round %d: table holds %d jobs, active set %d", round, len(jobs), len(next))
		}
		for _, j := range jobs {
			if want, ok := next[j.ID]; !ok || !want.Equal(j) {
				t.Fatalf("round %d: job %d not as reconciled", round, j.ID)
			}
		}
		if ordered && !slices.EqualFunc(jobs, active, func(a, b Job) bool { return a.ID == b.ID }) {
			t.Fatalf("round %d: ordered active set is not the committed row order", round)
		}
		model = next
	}
}

// TestReconcileCallsUpsertOffCursor: Reconcile stamps a job held unchanged
// in the row at its cursor itself and hands upsert exactly the rest —
// changed, revived after a removal, new, and out of order — and the
// committed table is what a Reset of the active set builds.
func TestReconcileCallsUpsertOffCursor(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	var tab Table
	held := map[int]Job{}
	for id := 0; id < 100; id += 10 {
		held[id] = tableJob(id, rnd)
		tab.Upsert(held[id])
	}
	tab.Commit(nil)
	tab.Remove(30) // dead, awaiting Commit
	changed := tableJob(20, rnd)
	active := []Job{
		held[0], held[10], // unchanged, at the cursor
		changed,           // changed
		held[30],          // revived: its row is dead
		held[40],          // unchanged, at the cursor again
		tableJob(45, rnd), // new: the cursor stays on 50
		held[50],          // unchanged, at the cursor
		held[70],          // 60 departs, so 70 is not at the cursor
		held[90],          // out of order: the cursor is on 80
		held[80],          // the cursor is past the end
	}
	var called []int
	ordered := tab.Reconcile(active, func(j Job) { called = append(called, j.ID); tab.Upsert(j) },
		func(id int) bool { called = append(called, -id); return tab.Remove(id) })
	if want := []int{20, 30, 45, 70, 90, 80, -60}; ordered || !slices.Equal(called, want) {
		t.Fatalf("callbacks %v (ordered %v), want %v (upserts, then -id for removes)", called, ordered, want)
	}
	tab.Commit(nil)
	var ref Table
	ref.Reset(active)
	if !slices.EqualFunc(tab.Jobs(), ref.Jobs(), func(a, b Job) bool { return a.ID == b.ID && a.Equal(b) }) {
		t.Fatalf("reconciled table %v, a Reset of the active set %v", tab.Jobs(), ref.Jobs())
	}
}

func TestAllocationInOrder(t *testing.T) {
	jobs := []Job{{ID: 1}, {ID: 4}, {ID: 9}}
	a := &Allocation{X: [][]float64{{1}, {4}, {9}}, EffThr: []float64{10, 40, 90}, LPVariables: 7}
	got := a.InOrder(jobs, []Job{{ID: 9}, {ID: 1}, {ID: 4}})
	if !slices.Equal(got.EffThr, []float64{90, 10, 40}) || got.X[0][0] != 9 || got.X[2][0] != 4 || got.LPVariables != 7 {
		t.Fatalf("InOrder = %+v", got)
	}
}
