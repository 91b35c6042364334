package online

import (
	"encoding/json"
	"fmt"
	"slices"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// ClusterState is the serializable warm state of a ClusterEngine: the jobs,
// their partition assignment (the stable-partition structure POP's
// incremental quality rests on), each partition's last simplex basis, and
// the work counters. Restoring it into a freshly constructed engine makes
// the first round solve warm — the restored bases seed the rebuilt models —
// instead of cold-starting, which is what lets a crashed shard worker or a
// restarted single-process popserver resume at steady-state cost.
//
// A basis is a combinatorial snapshot (see lp.Basis): it carries no numeric
// values, so restoring against slightly different job data is safe — the
// solver repairs or drops a stale basis on its own.
type ClusterState struct {
	Policy     string        `json:"policy"`
	K          int           `json:"k"`
	TypeNames  []string      `json:"type_names,omitempty"`
	GPUs       []float64     `json:"gpus,omitempty"`
	Jobs       []cluster.Job `json:"jobs"`
	Partitions [][]int       `json:"partitions"`
	Bases      []*lp.Basis   `json:"bases,omitempty"`
	Stats      Stats         `json:"stats"`
}

// Marshal encodes the state as JSON.
func (s *ClusterState) Marshal() ([]byte, error) { return json.Marshal(s) }

// Snapshot captures the engine's warm state. Call it between rounds (the
// engine is not safe for concurrent use); the result aliases nothing, so it
// may be marshaled or held across later mutations.
func (e *ClusterEngine) Snapshot() *ClusterState {
	st := &ClusterState{
		Policy:     e.st.policy.String(),
		K:          e.eng.t.opts.K,
		Jobs:       e.Jobs(),
		Partitions: make([][]int, e.eng.t.opts.K),
		Stats:      e.eng.t.stats,
	}
	if e.st.haveC {
		st.TypeNames = slices.Clone(e.st.c.TypeNames)
		st.GPUs = slices.Clone(e.st.c.NumGPUs)
	}
	haveBasis := false
	bases := make([]*lp.Basis, e.eng.t.opts.K)
	for p, part := range e.eng.t.parts {
		st.Partitions[p] = slices.Clone(part.ids)
		if m := e.eng.subs[p].model; m != nil && m.HasBasis() {
			bases[p] = m.Basis()
			haveBasis = true
		}
	}
	if haveBasis {
		st.Bases = bases
	}
	return st
}

// Restore installs a snapshot into the engine, replacing its jobs,
// partition assignment, and counters; the snapshot's bases are kept as
// seeds for the partitions' first model builds, so the next Solve attempts
// warm starts immediately. The snapshot must match the engine's policy and
// K and be internally consistent (every partitioned id has a job and vice
// versa); on error the engine is left empty but usable.
func (e *ClusterEngine) Restore(st *ClusterState) error {
	if st.Policy != e.st.policy.String() {
		return fmt.Errorf("online: snapshot policy %q does not match engine policy %q", st.Policy, e.st.policy)
	}
	if st.K != e.eng.t.opts.K {
		return fmt.Errorf("online: snapshot K=%d does not match engine K=%d", st.K, e.eng.t.opts.K)
	}
	if len(st.Partitions) != st.K {
		return fmt.Errorf("online: snapshot has %d partitions, want %d", len(st.Partitions), st.K)
	}
	e.resetState()
	var jobs cluster.Table
	jobs.Reset(st.Jobs)
	t := e.eng.t
	placed := 0
	for p, ids := range st.Partitions {
		part := t.parts[p]
		part.ids = slices.Clone(ids)
		part.dirty = true
		for _, id := range ids {
			j, ok := jobs.Get(id)
			if !ok {
				e.resetState()
				return fmt.Errorf("online: snapshot partition %d holds unknown job %d", p, id)
			}
			if _, dup := t.partOf[id]; dup {
				e.resetState()
				return fmt.Errorf("online: snapshot places job %d in two partitions", id)
			}
			t.partOf[id] = p
			t.loadOf[id] = j.Scale
			part.load += j.Scale
			placed++
		}
	}
	if placed != jobs.Len() {
		e.resetState()
		return fmt.Errorf("online: snapshot partitions cover %d jobs, registry has %d", placed, jobs.Len())
	}
	e.st.jobs = jobs
	t.stats = st.Stats
	if len(st.Bases) == st.K {
		seeds := make([]*lp.Basis, st.K)
		for p, b := range st.Bases {
			seeds[p] = b.Clone()
		}
		e.eng.seeds = seeds
	}
	if len(st.GPUs) > 0 {
		e.SetCluster(cluster.Cluster{TypeNames: slices.Clone(st.TypeNames), NumGPUs: slices.Clone(st.GPUs)})
	}
	return nil
}

// RestoreBytes unmarshals and installs a Marshal-ed snapshot.
func (e *ClusterEngine) RestoreBytes(raw []byte) error {
	var st ClusterState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("online: bad snapshot: %w", err)
	}
	return e.Restore(&st)
}

// resetState returns the engine to empty: no jobs, fresh partitions, no
// models, no basis seeds. Counters and the installed cluster survive.
func (e *ClusterEngine) resetState() {
	t := e.eng.t
	for p := range t.parts {
		t.parts[p] = &partition{}
	}
	t.partOf = make(map[int]int)
	t.loadOf = make(map[int]float64)
	e.st.jobs = cluster.Table{}
	e.st.results = make([]*clusterSubResult, t.opts.K)
	e.eng.invalidateModels()
	e.eng.seeds = nil
}
