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
// whose data is new since the previous commit. The side column holds the
// rows of the previous commit, so a move that reaches past them — a row
// appended since, which the owner never had — fails.
func checkTable(t *testing.T, tab *Table, model map[int]Job, side *[]float64, changed map[int]bool) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model holds %d", tab.Len(), len(model))
	}
	owned := len(*side)
	if n := max(owned, tab.Len()); n > owned {
		*side = append(*side, make([]float64, n-owned)...)
	}
	fresh := tab.Commit(func(dst, src, n int) {
		if src+n > owned {
			t.Fatalf("move(%d, %d, %d) reaches past the %d rows the last commit placed", dst, src, n, owned)
		}
		copy((*side)[dst:], (*side)[src:src+n])
	})
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

// tableModel drives a Table and the map it must match through the same
// operations, booking which ids hold data that is new since the last
// commit.
type tableModel struct {
	t       *testing.T
	tab     Table
	model   map[int]Job
	changed map[int]bool
	side    []float64
	rnd     *rand.Rand
	next    int // ids at or past next were never handed out by appendNext or reconcile
	inPlace int // arrivals appended to the rows without the side set
}

func newTableModel(t *testing.T, seed int64) *tableModel {
	return &tableModel{t: t, model: map[int]Job{}, changed: map[int]bool{}, rnd: rand.New(rand.NewSource(seed)), next: 30}
}

// upsert sends j and checks the Change against the model.
func (m *tableModel) upsert(j Job) {
	m.t.Helper()
	old, held := m.model[j.ID]
	want := Arrived
	switch {
	case held && old.Equal(j):
		want = Unchanged
	case held:
		want = Updated
	}
	rows := len(m.tab.rows)
	if got := m.tab.Upsert(j); got != want {
		m.t.Fatalf("Upsert(%d) = %v, want %v", j.ID, got, want)
	}
	if len(m.tab.rows) > rows {
		m.inPlace++
	}
	if want != Unchanged {
		m.model[j.ID], m.changed[j.ID] = j, true
	}
}

func (m *tableModel) remove(id int) {
	m.t.Helper()
	_, held := m.model[id]
	if got := m.tab.Remove(id); got != held {
		m.t.Fatalf("Remove(%d) = %v, model held %v", id, got, held)
	}
	delete(m.model, id)
	delete(m.changed, id)
}

// appendNext upserts an id past every id handed out so far.
func (m *tableModel) appendNext(gap int) {
	m.t.Helper()
	m.next += gap
	m.upsert(tableJob(m.next, m.rnd))
	m.next++
}

// reconcile reconciles the table to the model without the ids drop selects,
// plus fill ascending ids past every one handed out — a cold fill when the
// table is empty.
func (m *tableModel) reconcile(fill int, drop func(id int) bool) {
	m.t.Helper()
	var active []Job
	for _, j := range m.model {
		if !drop(j.ID) {
			active = append(active, j)
		}
	}
	slices.SortFunc(active, func(a, b Job) int { return a.ID - b.ID })
	for range fill {
		active = append(active, tableJob(m.next, m.rnd))
		m.next += 1 + m.rnd.Intn(2)
	}
	if !m.tab.Reconcile(active, m.upsert, func(id int) bool { m.remove(id); return true }) {
		m.t.Fatal("an ascending active set reconciled as unordered")
	}
	if m.tab.Len() != len(active) {
		m.t.Fatalf("reconciled table holds %d jobs, active set %d", m.tab.Len(), len(active))
	}
}

func (m *tableModel) check() {
	m.t.Helper()
	if _, ok := m.tab.Get(-1); ok {
		m.t.Fatal("Get of an id never added")
	}
	checkTable(m.t, &m.tab, m.model, &m.side, m.changed)
}

// TestTableMatchesMap drives random upsert/remove/update chains against a
// plain map: remove-then-re-add and add-then-remove inside one commit
// window, ids appended past the last row interleaved with out-of-order ids,
// an appended row removed and revived before its first commit, and a
// Reconcile cold fill that appends a whole ascending set in place.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := newTableModel(t, seed)
		if seed%2 == 0 {
			m.reconcile(100+m.rnd.Intn(200), func(int) bool { return false })
			m.check()
		}
		for round := 0; round < 40; round++ {
			for op := m.rnd.Intn(16); op > 0; op-- {
				id := m.rnd.Intn(max(m.next, 30))
				switch m.rnd.Intn(6) {
				case 0: // upsert new data
					m.upsert(tableJob(id, m.rnd))
				case 1: // re-submit identical data
					if old, held := m.model[id]; held {
						m.upsert(old)
					}
				case 2:
					m.remove(id)
				case 3, 4: // past the last row
					m.appendNext(m.rnd.Intn(2))
				case 5: // an appended row removed, then revived, before its first commit
					m.appendNext(0)
					last := m.next - 1
					j := m.model[last]
					m.remove(last)
					if m.rnd.Intn(2) == 0 {
						m.upsert(j)
					}
				}
			}
			if round%10 == 9 {
				m.reconcile(m.rnd.Intn(20), func(id int) bool { return id%7 == round%7 })
			}
			m.check()
		}
		if m.inPlace == 0 {
			t.Fatalf("seed %d: no arrival was appended in place", seed)
		}
	}
}

// FuzzTable runs op-byte sequences against the map model: each byte pair
// is an op and its argument — upsert, identical resubmit, remove, append
// past the last row, commit and check, or reconcile (dropping some ids,
// appending others) — and the table is checked after every commit.
func FuzzTable(f *testing.F) {
	f.Add([]byte{5, 40, 3, 0, 3, 1, 4, 0})
	f.Add([]byte{5, 200, 4, 0, 3, 0, 2, 255, 3, 1, 0, 7, 4, 0, 2, 201, 1, 3, 4, 0})
	f.Add([]byte{3, 0, 3, 0, 0, 1, 3, 2, 2, 3, 0, 3, 4, 0, 5, 9, 3, 1, 2, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTableModel(t, 1)
		for k := 0; k+1 < len(ops); k += 2 {
			arg := int(ops[k+1])
			id := arg % m.next
			switch ops[k] % 6 {
			case 0:
				m.upsert(tableJob(id, m.rnd))
			case 1:
				if old, held := m.model[id]; held {
					m.upsert(old)
				}
			case 2:
				m.remove(id)
			case 3:
				m.appendNext(arg % 3)
			case 4:
				m.check()
			case 5:
				m.reconcile(arg%64, func(id int) bool { return (id+arg)%5 == 0 })
			}
		}
		m.check()
	})
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
