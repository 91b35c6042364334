package online

import (
	"cmp"
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
		Policy:     e.policy.String(),
		K:          e.opts.K,
		Jobs:       e.Jobs(),
		Partitions: make([][]int, e.opts.K),
		Stats:      e.stats,
	}
	if e.haveC {
		st.TypeNames = slices.Clone(e.c.TypeNames)
		st.GPUs = slices.Clone(e.c.NumGPUs)
	}
	// A basis is kept only while its model's layout is its partition's:
	// Restore reads the layout back from the partition.
	haveBasis := false
	bases := make([]*lp.Basis, e.opts.K)
	var layout []block
	for p, s := range e.subs {
		st.Partitions[p] = slices.Clone(s.ids)
		if s.model == nil || !s.model.HasBasis() {
			continue
		}
		if layout = e.ad.Layout(s.ids, layout[:0]); slices.Equal(s.blocks, layout) {
			bases[p] = s.model.Basis()
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
// K, its GPU counts must be finite and ≥ 0 (cluster.CheckGPUs), its jobs
// must fit the pool it restores (cluster.CheckJobs), and it must be
// internally consistent (every partitioned id has a job and vice versa).
// A snapshot failing any check leaves the engine unchanged.
func (e *ClusterEngine) Restore(st *ClusterState) error {
	if st.Policy != e.policy.String() {
		return fmt.Errorf("online: snapshot policy %q does not match engine policy %q", st.Policy, e.policy)
	}
	if st.K != e.opts.K {
		return fmt.Errorf("online: snapshot K=%d does not match engine K=%d", st.K, e.opts.K)
	}
	if len(st.Partitions) != st.K {
		return fmt.Errorf("online: snapshot has %d partitions, want %d", len(st.Partitions), st.K)
	}
	if err := cluster.CheckGPUs(st.GPUs); err != nil {
		return fmt.Errorf("online: snapshot %w", err)
	}
	// The jobs must fit the pool the snapshot installs, or else the engine's.
	if err := cluster.CheckJobs(st.Jobs, cmp.Or(len(st.GPUs), e.c.NumTypes())); err != nil {
		return fmt.Errorf("online: snapshot %w", err)
	}
	var jobs cluster.Table
	jobs.Reset(st.Jobs)
	partOf := make(map[int]int, jobs.Len())
	for p, ids := range st.Partitions {
		for _, id := range ids {
			if _, ok := jobs.Get(id); !ok {
				return fmt.Errorf("online: snapshot partition %d holds unknown job %d", p, id)
			}
			if _, dup := partOf[id]; dup {
				return fmt.Errorf("online: snapshot places job %d in two partitions", id)
			}
			partOf[id] = p
		}
	}
	if len(partOf) != jobs.Len() {
		return fmt.Errorf("online: snapshot partitions cover %d jobs, registry has %d", len(partOf), jobs.Len())
	}

	e.subs = make([]sub, e.opts.K)
	e.partOf = partOf
	for p, ids := range st.Partitions {
		s := &e.subs[p]
		s.ids = slices.Clone(ids)
		s.dirty = true
		for _, id := range ids {
			j, _ := jobs.Get(id)
			s.load += j.Scale
		}
	}
	e.jobs = jobs
	e.stats = st.Stats
	e.seeds, e.seedBlocks = nil, nil
	if len(st.GPUs) > 0 {
		e.SetCluster(cluster.Cluster{TypeNames: slices.Clone(st.TypeNames), NumGPUs: slices.Clone(st.GPUs)})
	}
	if len(st.Bases) == st.K {
		e.seeds = make([]*lp.Basis, st.K)
		e.seedBlocks = make([][]block, st.K)
		for p, b := range st.Bases {
			// A basis too short for its partition's blocks fits no model
			// built for them.
			layout := e.ad.Layout(e.subs[p].ids, nil)
			v, r := 0, 0
			for _, blk := range layout {
				v, r = v+blk.Vars, r+blk.Rows
			}
			if b != nil && len(b.VarStatus) >= v && len(b.SlackStatus) >= r {
				e.seeds[p], e.seedBlocks[p] = b.Clone(), layout
			}
		}
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
