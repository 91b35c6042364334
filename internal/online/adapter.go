package online

import "pop/internal/lp"

// NoPartner marks a BlockKey owned by a single client.
const NoPartner = -1

// BlockKey identifies one LP block inside a sub-problem's persistent model.
// A is the owning client's id; B is a second owner for blocks shared by two
// clients (the space-sharing pair slots), or NoPartner for blocks owned by
// one client alone. One client may own any number of blocks.
type BlockKey struct {
	A, B int
}

// Contains reports whether id owns (part of) the block.
func (k BlockKey) Contains(id int) bool { return k.A == id || k.B == id }

// Block is one keyed slice of a sub-problem's LP: Vars consecutive
// variables and Rows consecutive constraint rows. A sub-problem's model lays
// its blocks out contiguously in layout order — all block variables first
// (then any shared variables), all block rows first (then any shared rows) —
// so the engine can splice whole blocks with lp.Model's structural
// operations while the stored basis carries the survivors' statuses along.
// A block's structure must be a pure function of its key and shape: a block
// whose key survives with the same shape is kept as it is, and everything
// data-dependent in it is RefreshModel's to rewrite.
type Block struct {
	Key  BlockKey
	Vars int
	Rows int
}

// Adapter is the problem-specific half of an online engine. The generic
// engine owns sub-problems, dirty tracking, the rebuild-vs-splice decision,
// solve timing, and stats; the adapter owns the LP formulation:
//
//   - Layout appends to buf (an empty slice the engine recycles between
//     sub-solves) the block sequence sub-problem p's model must hold for its
//     current members — the block-shape contract. Layouts must be
//     deterministic in (p, ids) and keep a departing member's blocks
//     removable and an arriving member's blocks insertable without
//     reordering survivors (append-ordered enumerations have this
//     property). Shared variables and rows trail the block region and are
//     not declared; the adapter places them in BuildModel and locates them
//     by counting from the model's end.
//   - BuildModel constructs a fresh model for the layout, encoding the
//     current data completely (it is also the cold-baseline build, so it
//     should use the plain builder API, not splices).
//   - SpliceBlock inserts one block's structure into a live model at the
//     engine-computed variable/row positions. Static coefficients may be
//     written here; data-dependent values are left to RefreshModel, which
//     always runs after a splice pass.
//   - RefreshModel rewrites every data-dependent coefficient, objective
//     entry, bound, and right-hand side against the current member data.
//     Model setters no-op on unchanged values, so the delta class the
//     solver sees — and with it dual-simplex eligibility — stays exact.
//   - Extract caches sub-problem p's solution on the adapter side (the
//     engine never interprets variables).
//   - Clear resets sub-problem p's cached result to empty (no members).
type Adapter interface {
	Layout(p int, ids []int, buf []Block) []Block
	BuildModel(p int, layout []Block) *lp.Model
	SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int)
	RefreshModel(m *lp.Model, p int, layout []Block)
	Extract(p int, layout []Block, sol *lp.Solution, nVars int) error
	Clear(p int)
}
