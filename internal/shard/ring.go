package shard

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Ring consistent-hashes client ids onto worker indices. Each worker owns
// `replicas` virtual points on a 64-bit circle; a client lands on the first
// point clockwise of its own hash. The mapping is a pure function of the
// worker count, so the coordinator can rebuild it after a restart (or
// recompute a dead worker's membership from the registry) without any
// persisted assignment table, and adding a worker would move only ~1/W of
// the clients.
type Ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash  uint64
	owner int
}

const defaultReplicas = 64

// NewRing builds a ring over workers 0..n-1 with the default virtual-point
// count per worker.
func NewRing(n int) *Ring { return NewRingReplicas(n, defaultReplicas) }

// NewRingReplicas builds a ring with `replicas` virtual points per worker.
func NewRingReplicas(n, replicas int) *Ring {
	if n < 1 {
		n = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{points: make([]ringPoint, 0, n*replicas), n: n}
	var buf [16]byte
	for w := 0; w < n; w++ {
		for v := 0; v < replicas; v++ {
			binary.LittleEndian.PutUint64(buf[:8], uint64(w))
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			r.points = append(r.points, ringPoint{hash: fnvHash(buf[:]), owner: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.owner < b.owner // deterministic under (vanishingly rare) collisions
	})
	return r
}

// Owner maps a client id to its worker index.
func (r *Ring) Owner(id int) int {
	if r.n == 1 {
		return 0
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(id)))
	h := fnvHash(buf[:])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}

func fnvHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}
