package price

import (
	"encoding/json"
	"fmt"
	"slices"

	"pop/internal/cluster"
)

// ClusterState is the serializable warm state of a price ClusterEngine: the
// jobs, the carried price vector (the warm-start currency of the
// tâtonnement solver), and the work counters. Restoring it into a freshly
// constructed engine makes the first round solve warm from the saved
// prices, so a crashed shard worker or restarted popserver resumes at
// steady-state iteration counts instead of re-discovering the market
// equilibrium from scratch.
type ClusterState struct {
	Policy    string        `json:"policy"`
	TypeNames []string      `json:"type_names,omitempty"`
	GPUs      []float64     `json:"gpus,omitempty"`
	Jobs      []cluster.Job `json:"jobs"`
	Price     []float64     `json:"price,omitempty"`
	Stats     Stats         `json:"stats"`
}

// Marshal encodes the state as JSON.
func (s *ClusterState) Marshal() ([]byte, error) { return json.Marshal(s) }

// Snapshot captures the engine's warm state between rounds. The result
// aliases nothing.
func (e *ClusterEngine) Snapshot() *ClusterState {
	st := &ClusterState{
		Policy: e.policy.String(),
		Jobs:   e.Jobs(),
		Stats:  e.stats,
	}
	if e.haveC {
		st.TypeNames = slices.Clone(e.c.TypeNames)
		st.GPUs = slices.Clone(e.c.NumGPUs)
	}
	if e.havePrice {
		st.Price = slices.Clone(e.price)
	}
	return st
}

// Restore installs a snapshot, replacing the engine's jobs, carried prices,
// and counters. The snapshot must match the engine's policy; on mismatch
// the engine is unchanged.
func (e *ClusterEngine) Restore(st *ClusterState) error {
	if st.Policy != e.policy.String() {
		return fmt.Errorf("price: snapshot policy %q does not match engine policy %q", st.Policy, e.policy)
	}
	e.tab.Reset(st.Jobs)
	e.dom = nil // rows no longer line up with the table
	e.price = slices.Clone(st.Price)
	e.havePrice = len(st.Price) > 0
	e.churn = 0
	e.stats = st.Stats
	if len(st.GPUs) > 0 {
		// Install directly: SetCluster's price rescaling is for live capacity
		// changes, not for re-loading the pool the prices were saved against.
		e.c = cluster.Cluster{TypeNames: slices.Clone(st.TypeNames), NumGPUs: slices.Clone(st.GPUs)}
		e.haveC = true
	}
	return nil
}

// RestoreBytes unmarshals and installs a Marshal-ed snapshot.
func (e *ClusterEngine) RestoreBytes(raw []byte) error {
	var st ClusterState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("price: bad snapshot: %w", err)
	}
	return e.Restore(&st)
}
