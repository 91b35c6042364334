package cluster

import (
	"slices"
	"sort"
)

// Equal reports whether two jobs carry identical data (IDs are not
// compared). It is the unchanged-resubmission test every layer of the
// serving stack shares, so a no-op at the coordinator is a no-op in the
// engines too.
func (j Job) Equal(o Job) bool {
	return j.Weight == o.Weight && j.Scale == o.Scale && j.NumSteps == o.NumSteps &&
		j.Priority == o.Priority && j.MemFrac == o.MemFrac &&
		slices.Equal(j.Throughput, o.Throughput)
}

// Change is what a Table.Upsert did.
type Change int8

const (
	// Unchanged: the table already held identical data.
	Unchanged Change = iota
	// Arrived: the id was not held.
	Arrived
	// Updated: the id was held with different data.
	Updated
)

// Table is a job set keyed by ID that serves its members as one
// ascending-ID slice — the client table the round engines and the shard
// coordinator keep between rounds, so a round never sorts, copies, or
// re-diffs the population.
//
// Upsert and Remove cost O(log n) (O(1) for ids presented in ascending
// order) and leave the committed rows where they are: a changed job is
// replaced in place, a removed row is marked dead, an arrival waits in a
// side set. Commit folds the round's removals and arrivals into the order
// with block moves — O(churn) copy calls moving O(n) bytes at memmove speed
// — and reports which positions hold new data, so an owner can keep
// per-client arrays aligned with the rows and recompute only those.
//
// The zero value is an empty table. A Table has one writer; Get, Len, and
// the slice Jobs returned are safe for concurrent readers while no writer
// runs.
type Table struct {
	rows    []Job  // ascending ID
	dead    []bool // per row: removed, awaiting Commit
	deadPos []int  // positions marked dead since the last Commit (may repeat)
	numDead int
	add     map[int]arrival // ids not in rows, awaiting Commit
	touched []int           // ids whose row was replaced or revived in place

	// Reconcile's sweep: every Upsert stamps what it touches with the
	// current epoch, so the members an active set did not mention are the
	// ones still carrying an older stamp — no per-call seen set.
	stamp []uint32
	epoch uint32

	cur int // position after the last row Upsert hit
}

type arrival struct {
	job   Job
	stamp uint32
}

// Len reports the number of jobs held, pending changes included.
func (t *Table) Len() int { return len(t.rows) - t.numDead + len(t.add) }

// find locates id among the committed rows.
func (t *Table) find(id int) (int, bool) {
	pos := sort.Search(len(t.rows), func(i int) bool { return t.rows[i].ID >= id })
	return pos, pos < len(t.rows) && t.rows[pos].ID == id
}

// Get returns the job held under id.
func (t *Table) Get(id int) (Job, bool) {
	if pos, ok := t.find(id); ok {
		if t.dead[pos] {
			return Job{}, false
		}
		return t.rows[pos], true
	}
	a, ok := t.add[id]
	return a.job, ok
}

// Upsert adds j under j.ID or replaces the data held there.
func (t *Table) Upsert(j Job) Change {
	pos, ok := t.cur, t.cur < len(t.rows) && t.rows[t.cur].ID == j.ID
	if !ok {
		pos, ok = t.find(j.ID)
	}
	if !ok {
		a, held := t.add[j.ID]
		if held && a.job.Equal(j) {
			a.stamp = t.epoch
			t.add[j.ID] = a
			return Unchanged
		}
		if t.add == nil {
			t.add = make(map[int]arrival)
		}
		t.add[j.ID] = arrival{job: j, stamp: t.epoch}
		if held {
			return Updated
		}
		return Arrived
	}
	t.cur = pos + 1
	if len(t.stamp) < len(t.rows) {
		t.stamp = append(t.stamp, make([]uint32, len(t.rows)-len(t.stamp))...)
	}
	t.stamp[pos] = t.epoch
	switch {
	case t.dead[pos]:
		t.dead[pos] = false // Commit skips the stale deadPos entry
		t.numDead--
		t.rows[pos] = j
		t.touched = append(t.touched, j.ID)
		return Arrived
	case t.rows[pos].Equal(j):
		return Unchanged
	}
	t.rows[pos] = j
	t.touched = append(t.touched, j.ID)
	return Updated
}

// Remove drops the job held under id and reports whether there was one.
func (t *Table) Remove(id int) bool {
	if pos, ok := t.find(id); ok {
		if t.dead[pos] {
			return false
		}
		t.dead[pos] = true
		t.deadPos = append(t.deadPos, pos)
		t.numDead++
		return true
	}
	if _, ok := t.add[id]; ok {
		delete(t.add, id)
		return true
	}
	return false
}

// Reconcile makes the table hold exactly the active set by calling upsert
// for every active job that may differ from what is held, and then remove
// for every member none of them named. The callbacks are the owner's own
// Upsert and Remove (which book their stats and call back into the table).
// A job held unchanged in the row at the cursor — the common case when
// active ascends by id — is stamped here without a callback, since every
// owner treats Unchanged as a no-op; dead, changed, new, and out-of-order
// jobs go through upsert. It reports whether active was in strictly
// ascending ID order — in which case it is, element for element, what Jobs
// returns after the next Commit.
func (t *Table) Reconcile(active []Job, upsert func(Job), remove func(id int) bool) (ordered bool) {
	t.epoch++
	if t.epoch == 0 { // wrapped: no stale stamp may alias the new epoch
		clear(t.stamp)
		t.epoch = 1
	}
	if len(t.stamp) < len(t.rows) {
		t.stamp = append(t.stamp, make([]uint32, len(t.rows)-len(t.stamp))...)
	}
	ordered = true
	for i, j := range active {
		if i > 0 && active[i-1].ID >= j.ID {
			ordered = false
		}
		if c := t.cur; c < len(t.rows) && t.rows[c].ID == j.ID && !t.dead[c] && t.rows[c].Equal(j) {
			t.stamp[c] = t.epoch
			t.cur = c + 1
			continue
		}
		upsert(j)
	}
	if t.Len() == len(active) && ordered {
		return true // every member was named: nothing to sweep
	}
	var gone []int
	for pos := range t.rows {
		if !t.dead[pos] && t.stamp[pos] != t.epoch {
			gone = append(gone, t.rows[pos].ID)
		}
	}
	for id, a := range t.add {
		if a.stamp != t.epoch {
			gone = append(gone, id)
		}
	}
	slices.Sort(gone)
	for _, id := range gone {
		remove(id)
	}
	return ordered
}

// Commit folds the pending removals and arrivals into the ascending-ID
// order and returns the positions (ascending) whose job is new or changed
// since the last Commit. Whenever a run of n surviving rows shifts, move
// (when non-nil) is called with memmove semantics — rows [src, src+n) now
// live at [dst, dst+n) — before anything overwrites the source, so an owner
// mirrors the shuffle onto its own per-row arrays with one copy per array;
// those arrays need room for max(old length, Len()) rows. The pending
// sets are dropped rather than emptied, so what a cold load or a mass
// removal grew them to is not held afterwards.
func (t *Table) Commit(move func(dst, src, n int)) []int {
	if len(t.deadPos) == 0 && len(t.add) == 0 && len(t.touched) == 0 {
		return nil
	}
	t.cur = 0
	if len(t.deadPos) > 0 {
		sort.Ints(t.deadPos)
		w, prev := -1, -1 // write cursor; previous dead position
		flush := func(end int) {
			if n := end - (prev + 1); n > 0 {
				copy(t.rows[w:], t.rows[prev+1:end])
				if move != nil {
					move(w, prev+1, n)
				}
				w += n
			}
		}
		for _, p := range t.deadPos {
			if p == prev || !t.dead[p] {
				continue // repeated, or revived since
			}
			if w < 0 {
				w = p
			} else {
				flush(p)
			}
			t.dead[p] = false
			prev = p
		}
		if w >= 0 {
			flush(len(t.rows))
			clear(t.rows[w:]) // release the dropped jobs' throughput rows
			t.rows = t.rows[:w]
			t.dead = t.dead[:w]
		}
		t.deadPos = nil
		t.numDead = 0
	}
	ids := t.touched
	if len(t.add) > 0 {
		in := make([]int, 0, len(t.add))
		for id := range t.add {
			in = append(in, id)
		}
		sort.Ints(in)
		hi := len(t.rows) // rows[:hi] are not placed yet
		t.rows = append(t.rows, make([]Job, len(in))...)
		t.dead = append(t.dead, make([]bool, len(in))...)
		for k := len(in) - 1; k >= 0; k-- {
			id := in[k]
			pos := sort.Search(hi, func(i int) bool { return t.rows[i].ID > id })
			if n := hi - pos; n > 0 {
				copy(t.rows[pos+k+1:], t.rows[pos:hi])
				if move != nil {
					move(pos+k+1, pos, n)
				}
			}
			t.rows[pos+k] = t.add[id].job
			hi = pos
		}
		t.add = nil // not cleared: a cold load's buckets would stay allocated
		ids = append(ids, in...)
	}
	fresh := make([]int, 0, len(ids))
	for _, id := range ids {
		if pos, ok := t.find(id); ok { // a touched row may have been removed since
			fresh = append(fresh, pos)
		}
	}
	t.touched = nil
	slices.Sort(fresh)
	return slices.Compact(fresh)
}

// Jobs returns the committed rows in ascending-ID order. The slice aliases
// the table: it is read-only and valid until the next Upsert, Remove, or
// Commit. Callers that mutated the table Commit first.
func (t *Table) Jobs() []Job { return t.rows }

// Reset empties the table and loads jobs (any order, later duplicates win).
func (t *Table) Reset(jobs []Job) {
	*t = Table{}
	for _, j := range jobs {
		t.Upsert(j)
	}
	t.Commit(nil)
}

// InOrder returns the allocation re-indexed from the order of jobs
// (ascending ID, as a held-state round returns it) to the order of active,
// which must name the same ids.
func (a *Allocation) InOrder(jobs, active []Job) *Allocation {
	out := &Allocation{
		Pairs:       a.Pairs,
		PairX:       a.PairX,
		EffThr:      make([]float64, len(active)),
		LPVariables: a.LPVariables,
	}
	if a.X != nil {
		out.X = make([][]float64, len(active))
	}
	for pos, j := range active {
		i := sort.Search(len(jobs), func(i int) bool { return jobs[i].ID >= j.ID })
		out.EffThr[pos] = a.EffThr[i]
		if a.X != nil {
			out.X[pos] = a.X[i]
		}
	}
	return out
}
