package price

import (
	"cmp"
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

// snapshotPolicy names the engine's market in ClusterState.Policy. The
// engine serves only the max-min market, but the field stays: state files
// carry it, and Restore refuses a snapshot that names another policy.
const snapshotPolicy = "max-min-fairness"

// Marshal encodes the state as JSON.
func (s *ClusterState) Marshal() ([]byte, error) { return json.Marshal(s) }

// Snapshot captures the engine's warm state between rounds. The result
// aliases nothing.
func (e *ClusterEngine) Snapshot() *ClusterState {
	st := &ClusterState{
		Policy: snapshotPolicy,
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
// and counters. The snapshot must name the engine's policy; its GPU counts
// must be finite and ≥ 0 (cluster.CheckGPUs); its jobs must fit the pool it
// restores (cluster.CheckJobs); and its price vector must be empty or hold
// one finite, ≥ 0 price per GPU type of that pool. Otherwise the engine is
// unchanged.
func (e *ClusterEngine) Restore(st *ClusterState) error {
	if st.Policy != snapshotPolicy {
		return fmt.Errorf("price: snapshot policy %q does not match engine policy %q", st.Policy, snapshotPolicy)
	}
	if err := cluster.CheckGPUs(st.GPUs); err != nil {
		return fmt.Errorf("price: snapshot %w", err)
	}
	// The jobs and prices must fit the pool the snapshot installs, or else
	// the engine's.
	types := cmp.Or(len(st.GPUs), e.c.NumTypes())
	if err := cluster.CheckJobs(st.Jobs, types); err != nil {
		return fmt.Errorf("price: snapshot %w", err)
	}
	if len(st.Price) > 0 && len(st.Price) != types {
		return fmt.Errorf("price: snapshot has %d prices for %d gpu types", len(st.Price), types)
	}
	for i, p := range st.Price {
		if !cluster.FiniteNonNegative(p) {
			return fmt.Errorf("price: snapshot price %d is %v, not finite and ≥ 0", i, p)
		}
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
