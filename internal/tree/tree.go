// Package tree implements the hierarchical oct-tree force calculation
// (Barnes & Hut 1986) with Barnes' modified algorithm (Barnes 1990), in which
// the tree traversal is performed once per *group* of particles rather than
// once per particle: a shared interaction list of tree nodes and particles is
// built for each group and then evaluated directly with the ppkern kernels.
//
// Grouping reduces the traversal cost by a factor of ⟨Ni⟩ (the mean group
// size) while lengthening the interaction list ⟨Nj⟩, since group members
// interact with each other directly; the optimum ⟨Ni⟩ is machine dependent
// (≈100 on K computer, ≈500 on GPU clusters — paper §II). The package exposes
// both the grouped and the classic per-particle traversal so the trade-off
// can be measured.
//
// For the TreePM short-range force the traversal prunes every node farther
// than rcut from the group (the PM part carries the remainder), which keeps
// ⟨Nj⟩ about six times shorter than in a pure tree code (paper §III-B).
package tree

import (
	"fmt"
	"math"
	"sync"
	"time"

	"greem/internal/ppkern"
)

// Options controls tree construction.
type Options struct {
	// LeafCap is the maximum number of particles in a leaf node.
	LeafCap int
	// MaxDepth bounds recursion for pathological (coincident) inputs.
	MaxDepth int
	// Quadrupole computes traceless quadrupole moments for every node so
	// traversals can use them (ForceOpts.Quadrupole). The paper's production
	// configuration is monopole-only; this is the accuracy/cost ablation.
	Quadrupole bool
	// Workers parallelizes construction: the top of the tree is split
	// serially, then the resulting subtrees are built concurrently into
	// private arenas and merged (subtrees own disjoint particle ranges, so
	// the reordering is race-free and the resulting structure is identical
	// to a serial build up to node numbering). 0/1 = serial.
	Workers int
}

// DefaultOptions are reasonable construction parameters.
func DefaultOptions() Options { return Options{LeafCap: 16, MaxDepth: 40} }

type node struct {
	cx, cy, cz       float64 // geometric center of the cell
	half             float64 // half side length
	mass             float64
	comx, comy, comz float64
	start, count     int32 // contiguous particle range in tree order
	firstChild       int32 // index of first child; children are contiguous; -1 for leaf
	nChild           int8
}

// Tree is an oct-tree over a particle set. Particles are copied into tree
// order internally; Perm maps tree order back to the caller's indices.
type Tree struct {
	X, Y, Z, M []float64 // particle data in tree order
	Perm       []int32   // Perm[i] = original index of tree-order particle i

	nodes []node
	// quads[i] holds node i's traceless quadrupole (xx, yy, zz, xy, xz, yz)
	// when Options.Quadrupole is set; nil otherwise.
	quads [][6]float64
	opt   Options

	// Bounding cube.
	minX, minY, minZ, size float64
}

// buildScratch holds the octant-partition temporaries splitLevel needs (one
// scatter buffer per particle array plus the octant tags). A fresh Build
// allocates one; a Builder retains one across Rebuilds so the steady-state
// construction path is allocation-free.
type buildScratch struct {
	tx, ty, tz, tm []float64
	tp             []int32
	oct            []int8
}

// grow sizes every scratch buffer to count elements, reallocating with
// headroom: a retained scratch follows a particle count that fluctuates.
func (sc *buildScratch) grow(count int) {
	if cap(sc.tx) < count {
		c := count + count/8
		sc.tx = make([]float64, count, c)
		sc.ty = make([]float64, count, c)
		sc.tz = make([]float64, count, c)
		sc.tm = make([]float64, count, c)
		sc.tp = make([]int32, count, c)
		sc.oct = make([]int8, count, c)
	}
	sc.tx = sc.tx[:count]
	sc.ty = sc.ty[:count]
	sc.tz = sc.tz[:count]
	sc.tm = sc.tm[:count]
	sc.tp = sc.tp[:count]
	sc.oct = sc.oct[:count]
}

// Build constructs an oct-tree over the given particles. The bounding cube is
// computed from the data. Build does not modify its inputs. Hot paths that
// rebuild trees every step should hold a Builder and call Rebuild instead.
func Build(x, y, z, m []float64, opt Options) (*Tree, error) {
	t := &Tree{}
	var sc buildScratch
	if err := buildInto(t, &sc, x, y, z, m, opt); err != nil {
		return nil, err
	}
	return t, nil
}

// buildInto (re)constructs t over the given particles, reusing whatever
// capacity t's arrays and the scratch already hold. Shared by Build (fresh
// Tree and scratch) and Builder.Rebuild (both retained).
func buildInto(t *Tree, sc *buildScratch, x, y, z, m []float64, opt Options) error {
	n := len(x)
	if len(y) != n || len(z) != n || len(m) != n {
		return fmt.Errorf("tree: mismatched slice lengths")
	}
	if opt.LeafCap < 1 {
		opt.LeafCap = DefaultOptions().LeafCap
	}
	if opt.MaxDepth < 1 {
		opt.MaxDepth = DefaultOptions().MaxDepth
	}
	t.X = append(t.X[:0], x...)
	t.Y = append(t.Y[:0], y...)
	t.Z = append(t.Z[:0], z...)
	t.M = append(t.M[:0], m...)
	t.Perm = growInt32(t.Perm, n)
	for i := range t.Perm {
		t.Perm[i] = int32(i)
	}
	t.nodes = t.nodes[:0]
	t.opt = opt
	t.minX, t.minY, t.minZ, t.size = 0, 0, 0, 0
	if n == 0 {
		t.quads = nil
		return nil
	}
	minX, maxX := minMax(x)
	minY, maxY := minMax(y)
	minZ, maxZ := minMax(z)
	size := math.Max(maxX-minX, math.Max(maxY-minY, maxZ-minZ))
	if size == 0 {
		size = 1e-12
	}
	// Grow slightly so boundary particles are strictly inside.
	size *= 1 + 1e-12
	t.minX, t.minY, t.minZ, t.size = minX, minY, minZ, size

	root := node{
		cx: minX + size/2, cy: minY + size/2, cz: minZ + size/2,
		half: size / 2, start: 0, count: int32(n), firstChild: -1,
	}
	t.nodes = append(t.nodes, root)
	if opt.Workers > 1 && n > 4096 {
		t.splitParallel(opt.Workers, sc)
	} else {
		t.split(0, 0, sc)
	}
	t.computeMoments(0)
	if opt.Quadrupole {
		if cap(t.quads) < len(t.nodes) {
			t.quads = make([][6]float64, len(t.nodes))
		}
		t.quads = t.quads[:len(t.nodes)]
		t.computeQuadrupoles(0)
	} else {
		// Traversals key the quadrupole path off quads != nil, so a
		// monopole-only (re)build must drop the arena entirely.
		t.quads = nil
	}
	return nil
}

// computeQuadrupoles fills the traceless quadrupole moments bottom-up:
// leaves directly from their particles, internal nodes from their children
// via the parallel-axis shift Q += m·(3 δᵢδⱼ − δᵢⱼ|δ|²) with δ the child
// center-of-mass offset. Must run after computeMoments.
func (t *Tree) computeQuadrupoles(i int) {
	nd := &t.nodes[i]
	var q [6]float64
	add := func(m, dx, dy, dz float64) {
		d2 := dx*dx + dy*dy + dz*dz
		q[0] += m * (3*dx*dx - d2)
		q[1] += m * (3*dy*dy - d2)
		q[2] += m * (3*dz*dz - d2)
		q[3] += m * 3 * dx * dy
		q[4] += m * 3 * dx * dz
		q[5] += m * 3 * dy * dz
	}
	if nd.firstChild < 0 {
		for p := nd.start; p < nd.start+nd.count; p++ {
			add(t.M[p], t.X[p]-nd.comx, t.Y[p]-nd.comy, t.Z[p]-nd.comz)
		}
	} else {
		for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
			t.computeQuadrupoles(int(c))
			ch := &t.nodes[c]
			cq := t.quads[c]
			for k := 0; k < 6; k++ {
				q[k] += cq[k]
			}
			add(ch.mass, ch.comx-nd.comx, ch.comy-nd.comy, ch.comz-nd.comz)
		}
	}
	t.quads[i] = q
}

// RootQuadrupole returns the root node's traceless quadrupole moments
// (xx, yy, zz, xy, xz, yz); zero value if quadrupoles were not built.
func (t *Tree) RootQuadrupole() [6]float64 {
	if t.quads == nil || len(t.nodes) == 0 {
		return [6]float64{}
	}
	return t.quads[0]
}

func minMax(a []float64) (lo, hi float64) {
	lo, hi = a[0], a[0]
	for _, v := range a[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// splitParallel builds the tree with concurrent subtree construction: a
// serial top phase subdivides until at least ~4·workers oversized nodes
// exist, then each is completed in its own goroutine and arena. The parallel
// path allocates (goroutine arenas, bookkeeping) — the zero-alloc Rebuild
// guarantee holds for the serial path only.
func (t *Tree) splitParallel(workers int, sc *buildScratch) {
	// Top phase: breadth-first serial splitting of oversized nodes.
	pending := []int{0}
	depth := map[int]int{0: 0}
	for len(pending) < 4*workers {
		// Pick the largest pending oversized node to split next.
		best := -1
		for idx, ni := range pending {
			if int(t.nodes[ni].count) > t.opt.LeafCap &&
				(best < 0 || t.nodes[ni].count > t.nodes[pending[best]].count) {
				best = idx
			}
		}
		if best < 0 {
			break // everything fits in leaves already
		}
		ni := pending[best]
		d := depth[ni]
		pending = append(pending[:best], pending[best+1:]...)
		if d < t.opt.MaxDepth {
			t.splitLevel(ni, sc)
		}
		nd := &t.nodes[ni]
		if nd.firstChild < 0 {
			continue // MaxDepth or degenerate: stays a leaf
		}
		for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
			pending = append(pending, int(c))
			depth[int(c)] = d + 1
		}
	}
	// Bottom phase: finish each pending subtree in a private arena.
	type arena struct {
		root  int
		nodes []node
	}
	arenas := make([]arena, len(pending))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for k, ni := range pending {
		wg.Add(1)
		go func(k, ni int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sub := &Tree{X: t.X, Y: t.Y, Z: t.Z, M: t.M, Perm: t.Perm, opt: t.opt}
			sub.nodes = append(sub.nodes, t.nodes[ni])
			var ssc buildScratch
			sub.split(0, depth[ni], &ssc)
			arenas[k] = arena{root: ni, nodes: sub.nodes}
		}(k, ni)
	}
	wg.Wait()
	// Merge arenas: arena-local index 0 replaces the pending node; locals
	// j ≥ 1 land at offset + j − 1.
	for _, a := range arenas {
		if len(a.nodes) == 1 {
			t.nodes[a.root] = a.nodes[0]
			continue
		}
		offset := int32(len(t.nodes))
		remap := func(nd node) node {
			if nd.firstChild >= 1 {
				nd.firstChild += offset - 1
			}
			return nd
		}
		t.nodes[a.root] = remap(a.nodes[0])
		for _, nd := range a.nodes[1:] {
			t.nodes = append(t.nodes, remap(nd))
		}
	}
}

// split recursively subdivides node i until leaves hold at most LeafCap
// particles, reordering the particle arrays so each node owns a contiguous
// range.
func (t *Tree) split(i int, depth int, sc *buildScratch) {
	nd := &t.nodes[i]
	if int(nd.count) <= t.opt.LeafCap || depth >= t.opt.MaxDepth {
		return
	}
	t.splitLevel(i, sc)
	n := &t.nodes[i]
	for c := n.firstChild; c >= 0 && c < n.firstChild+int32(n.nChild); c++ {
		t.split(int(c), depth+1, sc)
	}
}

// splitLevel performs the one-level octant partition of node i: bucket the
// particles, reorder them in place, and create the child nodes (no
// recursion). The scratch is free for reuse on return (the copy-back happens
// before the caller recurses into the children).
func (t *Tree) splitLevel(i int, sc *buildScratch) {
	nd := &t.nodes[i]
	start, count := int(nd.start), int(nd.count)
	cx, cy, cz := nd.cx, nd.cy, nd.cz

	// Bucket particles by octant with a counting pass + cycle of copies.
	var cnt [8]int
	sc.grow(count)
	oct := sc.oct
	for k := 0; k < count; k++ {
		p := start + k
		o := int8(0)
		if t.X[p] >= cx {
			o |= 1
		}
		if t.Y[p] >= cy {
			o |= 2
		}
		if t.Z[p] >= cz {
			o |= 4
		}
		oct[k] = o
		cnt[o]++
	}
	var off [8]int
	sum := 0
	for o := 0; o < 8; o++ {
		off[o] = sum
		sum += cnt[o]
	}
	// Stable scatter into the scratch, then copy back.
	tx, ty, tz, tm, tp := sc.tx, sc.ty, sc.tz, sc.tm, sc.tp
	pos := off
	for k := 0; k < count; k++ {
		d := pos[oct[k]]
		pos[oct[k]]++
		p := start + k
		tx[d], ty[d], tz[d], tm[d], tp[d] = t.X[p], t.Y[p], t.Z[p], t.M[p], t.Perm[p]
	}
	copy(t.X[start:start+count], tx)
	copy(t.Y[start:start+count], ty)
	copy(t.Z[start:start+count], tz)
	copy(t.M[start:start+count], tm)
	copy(t.Perm[start:start+count], tp)

	// Create child nodes for non-empty octants.
	h := nd.half / 2
	firstChild := int32(len(t.nodes))
	nChild := int8(0)
	for o := 0; o < 8; o++ {
		if cnt[o] == 0 {
			continue
		}
		dx, dy, dz := -h, -h, -h
		if o&1 != 0 {
			dx = h
		}
		if o&2 != 0 {
			dy = h
		}
		if o&4 != 0 {
			dz = h
		}
		t.nodes = append(t.nodes, node{
			cx: cx + dx, cy: cy + dy, cz: cz + dz, half: h,
			start: int32(start + off[o]), count: int32(cnt[o]), firstChild: -1,
		})
		nChild++
	}
	// nd may be stale after append; reload.
	t.nodes[i].firstChild = firstChild
	t.nodes[i].nChild = nChild
}

// computeMoments fills mass and center-of-mass bottom-up.
func (t *Tree) computeMoments(i int) {
	nd := &t.nodes[i]
	if nd.firstChild < 0 {
		var m, mx, my, mz float64
		for p := nd.start; p < nd.start+nd.count; p++ {
			m += t.M[p]
			mx += t.M[p] * t.X[p]
			my += t.M[p] * t.Y[p]
			mz += t.M[p] * t.Z[p]
		}
		nd.mass = m
		if m > 0 {
			nd.comx, nd.comy, nd.comz = mx/m, my/m, mz/m
		} else {
			nd.comx, nd.comy, nd.comz = nd.cx, nd.cy, nd.cz
		}
		return
	}
	var m, mx, my, mz float64
	for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
		t.computeMoments(int(c))
		ch := &t.nodes[c]
		m += ch.mass
		mx += ch.mass * ch.comx
		my += ch.mass * ch.comy
		mz += ch.mass * ch.comz
	}
	nd.mass = m
	if m > 0 {
		nd.comx, nd.comy, nd.comz = mx/m, my/m, mz/m
	} else {
		nd.comx, nd.comy, nd.comz = nd.cx, nd.cy, nd.cz
	}
}

// NumNodes returns the number of tree nodes (for diagnostics).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumParticles returns the number of particles in the tree.
func (t *Tree) NumParticles() int { return len(t.X) }

// TotalMass returns the root node's mass.
func (t *Tree) TotalMass() float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.nodes[0].mass
}

// Group is a set of particles (a contiguous tree-order range of a target
// tree) that shares one interaction list, per Barnes' modified algorithm.
type Group struct {
	Start, Count int32
	// Tight axis-aligned bounding box of the member particles.
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
}

// Groups partitions the tree's particles into groups of at most cap
// particles by walking down from the root; subtrees with ≤ cap particles
// become groups. cap = 1 reproduces the original per-particle Barnes-Hut
// traversal (each particle its own group).
func (t *Tree) Groups(cap int) []Group {
	return t.AppendGroups(nil, cap)
}

// AppendGroups is Groups with a caller-supplied buffer: the decomposition is
// appended to buf (pass buf[:0] to reuse its backing array across passes) and
// the possibly-regrown slice returned. Hot paths use this to keep repeated
// force passes allocation-free.
func (t *Tree) AppendGroups(buf []Group, cap int) []Group {
	if cap < 1 {
		cap = 1
	}
	if len(t.nodes) == 0 {
		return buf
	}
	return t.appendGroups(buf, 0, cap)
}

// appendGroups is AppendGroups' method-recursive walk (method recursion, not
// a closure, so the traversal itself allocates nothing).
func (t *Tree) appendGroups(buf []Group, i, cap int) []Group {
	nd := &t.nodes[i]
	if int(nd.count) <= cap {
		return append(buf, t.makeGroup(nd.start, nd.count))
	}
	if nd.firstChild < 0 {
		// Leaf larger than cap (cap < LeafCap): split evenly.
		for s := nd.start; s < nd.start+nd.count; s += int32(cap) {
			c := int32(cap)
			if s+c > nd.start+nd.count {
				c = nd.start + nd.count - s
			}
			buf = append(buf, t.makeGroup(s, c))
		}
		return buf
	}
	for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
		buf = t.appendGroups(buf, int(c), cap)
	}
	return buf
}

func (t *Tree) makeGroup(start, count int32) Group {
	g := Group{Start: start, Count: count,
		MinX: math.Inf(1), MinY: math.Inf(1), MinZ: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1), MaxZ: math.Inf(-1)}
	for p := start; p < start+count; p++ {
		g.MinX = math.Min(g.MinX, t.X[p])
		g.MaxX = math.Max(g.MaxX, t.X[p])
		g.MinY = math.Min(g.MinY, t.Y[p])
		g.MaxY = math.Max(g.MaxY, t.Y[p])
		g.MinZ = math.Min(g.MinZ, t.Z[p])
		g.MaxZ = math.Max(g.MaxZ, t.Z[p])
	}
	return g
}

// Stats aggregates traversal and interaction-count statistics; the paper's
// Table I reports ⟨Ni⟩ (mean group size), ⟨Nj⟩ (mean interaction-list
// length) and the total interaction count.
type Stats struct {
	Groups        int
	SumNi         uint64 // Σ group sizes
	ListParticles uint64 // Σ particle entries over all lists
	ListNodes     uint64 // Σ multipole entries over all lists
	Interactions  uint64 // Σ Ni·Nj
	NodesVisited  uint64 // traversal work
	// KernelSeconds is the wall-clock spent inside the force kernel, so the
	// caller can split fused traversal+force time into Table I's separate
	// "tree traversal" and "force calculation" rows.
	KernelSeconds float64
}

// Flops returns the floating-point operations implied by the interaction
// count under the kernel's 51-op ledger (§II-A) — the number the telemetry
// flop counter accumulates to report modeled Gflops.
func (s Stats) Flops() uint64 {
	return s.Interactions * uint64(ppkern.FlopsPerInteraction)
}

// MeanNi returns ⟨Ni⟩.
func (s Stats) MeanNi() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.SumNi) / float64(s.Groups)
}

// MeanNj returns ⟨Nj⟩.
func (s Stats) MeanNj() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.ListParticles+s.ListNodes) / float64(s.Groups)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Groups += o.Groups
	s.SumNi += o.SumNi
	s.ListParticles += o.ListParticles
	s.ListNodes += o.ListNodes
	s.Interactions += o.Interactions
	s.NodesVisited += o.NodesVisited
	s.KernelSeconds += o.KernelSeconds
}

// ForceOpts parameterizes a force evaluation pass.
type ForceOpts struct {
	G     float64 // gravitational constant
	Theta float64 // opening angle; a node of side s at distance d is accepted if s < θ·d
	Eps2  float64 // Plummer softening squared
	// Cutoff enables the TreePM short-range mode with radius Rcut; nodes and
	// particles beyond Rcut of a group are pruned (their force is the PM's).
	// The cutoff walk is the production pipeline's Phantom-GRAPE arrangement
	// (§II-A): interaction lists are emitted as float32 SoA batches with
	// positions *relative to the group center*, so every coordinate the
	// kernel sees is bounded by Rcut + the group radius and float32
	// resolution is spent where the force lives; per-target partials still
	// accumulate in float64. The open (pure-tree) walk has no distance bound,
	// so it stays float64, as does the quadrupole ablation.
	Cutoff bool
	Rcut   float64
	// Periodic enables minimum-image traversal over a cube of side L
	// (serial whole-box mode; parallel mode passes pre-shifted ghosts).
	Periodic bool
	L        float64
	// Float64Walk evaluates the cutoff walk with the float64 interaction
	// lists and the scalar ppkern.AccelCutoff instead of the production
	// float32 batches. It is the tree layer's single reference oracle — the
	// same collect + kernel code the open-boundary and quadrupole walks run —
	// and only tests set it (pinned by the knob census in internal/sim).
	Float64Walk bool
	// Quadrupole evaluates accepted nodes with monopole+quadrupole moments
	// instead of monopole only. Requires a source tree built with
	// Options.Quadrupole, and is only supported in the open (non-cutoff)
	// mode: the eq. 3 cutoff shapes the pair force, and shaping higher
	// multipoles is not implemented (the paper's code is monopole-only).
	Quadrupole bool
	// Workers runs the traversal+kernel over groups on this many goroutines
	// — the stand-in for the paper's OpenMP threads inside each MPI process
	// (GreeM is an MPI/OpenMP hybrid; K computer has 8 cores per node).
	// 0 or 1 means serial.
	Workers int
}

// Walker owns all the scratch a grouped traversal+kernel pass needs — the
// interaction-list batch buffers (float64 and float32 SoA), per-group
// accumulators, the traversal stack, and the periodic shift table — so that
// repeated force passes allocate nothing in steady state. A Walker is not
// safe for concurrent use; with ForceOpts.Workers > 1 it lazily grows one
// private sub-Walker per worker goroutine and reuses them across passes.
type Walker struct {
	list   ppkern.Source
	list32 ppkern.SourceF32
	quads  ppkern.QuadSource
	// Per-group accumulators (float64) and float32 group-relative targets.
	gax, gay, gaz []float64
	tix, tiy, tiz []float32
	stack         []int32
	shifts        [][3]float64
	groups        []Group
	subs          []*Walker
	stats         []Stats
}

// NewWalker returns an empty Walker; buffers grow on first use.
func NewWalker() *Walker { return &Walker{} }

// Accel computes tree accelerations on the particles of tgt using src as the
// source tree (src and tgt may be the same tree): the TreePM short-range
// force when opt.Cutoff is set, the plain Barnes-Hut force otherwise. The
// result is accumulated into ax/ay/az, which are indexed by the *original*
// particle order of tgt. Group size cap ni controls Barnes' modified
// algorithm (ni=1 for the original per-particle traversal).
func (w *Walker) Accel(src, tgt *Tree, ni int, opt ForceOpts, ax, ay, az []float64) Stats {
	w.groups = tgt.AppendGroups(w.groups[:0], ni)
	return w.AccelGroups(src, tgt, w.groups, opt, ax, ay, az)
}

// AccelGroups is Accel with a caller-supplied group decomposition. With
// opt.Workers > 1 the groups are processed concurrently on per-worker
// sub-Walkers; groups own disjoint particle ranges (and hence disjoint
// output indices through Perm), so no synchronization of the accumulators is
// needed, and the result is bit-identical to a serial pass.
// Stats.KernelSeconds then aggregates CPU seconds across workers, not
// wall-clock.
func (w *Walker) AccelGroups(src, tgt *Tree, groups []Group, opt ForceOpts, ax, ay, az []float64) Stats {
	if opt.Workers > 1 && len(groups) > 1 {
		nw := opt.Workers
		if nw > len(groups) {
			nw = len(groups)
		}
		for len(w.subs) < nw {
			w.subs = append(w.subs, NewWalker())
		}
		if cap(w.stats) < nw {
			w.stats = make([]Stats, nw)
		}
		stats := w.stats[:nw]
		var wg sync.WaitGroup
		for k := 0; k < nw; k++ {
			lo := k * len(groups) / nw
			hi := (k + 1) * len(groups) / nw
			wg.Add(1)
			go func(k, lo, hi int) {
				defer wg.Done()
				sub := opt
				sub.Workers = 1
				stats[k] = w.subs[k].AccelGroups(src, tgt, groups[lo:hi], sub, ax, ay, az)
			}(k, lo, hi)
		}
		wg.Wait()
		var st Stats
		for _, s := range stats {
			st.Add(s)
		}
		return st
	}
	if opt.Quadrupole && opt.Cutoff {
		panic("tree: quadrupole moments are only supported in open (non-cutoff) mode")
	}
	if opt.Cutoff && !opt.Float64Walk {
		return w.accelGroupsF32(src, tgt, groups, opt, ax, ay, az)
	}
	var st Stats
	var quads *ppkern.QuadSource
	if opt.Quadrupole {
		quads = &w.quads
	}
	w.shifts = src.appendShifts(w.shifts[:0], opt)
	for _, g := range groups {
		w.list.Reset()
		w.quads.Reset()
		var nodesVisited, nPart, nNode uint64
		for _, sh := range w.shifts {
			var v, p, nn uint64
			w.stack, v, p, nn = src.collect(w.stack, &w.list, quads, g, sh, opt)
			nodesVisited += v
			nPart += p
			nNode += nn
		}
		ni := int(g.Count)
		st.Groups++
		st.SumNi += uint64(ni)
		st.ListParticles += nPart
		st.ListNodes += nNode
		st.NodesVisited += nodesVisited

		w.gax = resize(w.gax, ni)
		w.gay = resize(w.gay, ni)
		w.gaz = resize(w.gaz, ni)
		xi := tgt.X[g.Start : g.Start+g.Count]
		yi := tgt.Y[g.Start : g.Start+g.Count]
		zi := tgt.Z[g.Start : g.Start+g.Count]
		tKernel := time.Now()
		// The kernels are the single source of the interaction count
		// (n × Nj each); the Stats ledger sums their returns.
		if opt.Cutoff {
			st.Interactions += ppkern.AccelCutoff(xi, yi, zi, &w.list, opt.G, opt.Rcut, opt.Eps2, w.gax, w.gay, w.gaz)
		} else {
			st.Interactions += ppkern.AccelPlain(xi, yi, zi, &w.list, opt.G, opt.Eps2, w.gax, w.gay, w.gaz)
		}
		if opt.Quadrupole && w.quads.Len() > 0 {
			st.Interactions += ppkern.AccelQuad(xi, yi, zi, &w.quads, opt.G, opt.Eps2, w.gax, w.gay, w.gaz)
		}
		st.KernelSeconds += time.Since(tKernel).Seconds()
		for k := 0; k < ni; k++ {
			orig := tgt.Perm[int(g.Start)+k]
			ax[orig] += w.gax[k]
			ay[orig] += w.gay[k]
			az[orig] += w.gaz[k]
		}
	}
	return st
}

// accelGroupsF32 is the float32 batch walk: collectF32 emits each group's
// interaction list into the reusable float32 SoA buffer with positions
// relative to the group's bounding-box center, the group's own targets are
// rebased the same way, and the float32 cutoff kernel accumulates into the
// float64 per-group buffers. Serial — the Workers split happens above.
func (w *Walker) accelGroupsF32(src, tgt *Tree, groups []Group, opt ForceOpts, ax, ay, az []float64) Stats {
	var st Stats
	w.shifts = src.appendShifts(w.shifts[:0], opt)
	g32 := float32(opt.G)
	rcut32 := float32(opt.Rcut)
	eps232 := float32(opt.Eps2)
	for _, g := range groups {
		// Group center: the bounding-box midpoint. Every emitted coordinate
		// is then bounded by Rcut plus the half-diagonal of the group box.
		cx := 0.5 * (g.MinX + g.MaxX)
		cy := 0.5 * (g.MinY + g.MaxY)
		cz := 0.5 * (g.MinZ + g.MaxZ)
		w.list32.Reset()
		var nodesVisited, nPart, nNode uint64
		for _, sh := range w.shifts {
			var v, p, nn uint64
			w.stack, v, p, nn = src.collectF32(w.stack, &w.list32, g, sh, cx, cy, cz, opt)
			nodesVisited += v
			nPart += p
			nNode += nn
		}
		ni := int(g.Count)
		st.Groups++
		st.SumNi += uint64(ni)
		st.ListParticles += nPart
		st.ListNodes += nNode
		st.NodesVisited += nodesVisited

		w.gax = resize(w.gax, ni)
		w.gay = resize(w.gay, ni)
		w.gaz = resize(w.gaz, ni)
		w.tix = resize32(w.tix, ni)
		w.tiy = resize32(w.tiy, ni)
		w.tiz = resize32(w.tiz, ni)
		for k := 0; k < ni; k++ {
			p := int(g.Start) + k
			w.tix[k] = float32(tgt.X[p] - cx)
			w.tiy[k] = float32(tgt.Y[p] - cy)
			w.tiz[k] = float32(tgt.Z[p] - cz)
		}
		tKernel := time.Now()
		st.Interactions += ppkern.AccelCutoffF32Fast(w.tix, w.tiy, w.tiz, &w.list32, g32, rcut32, eps232, w.gax, w.gay, w.gaz)
		st.KernelSeconds += time.Since(tKernel).Seconds()
		for k := 0; k < ni; k++ {
			orig := tgt.Perm[int(g.Start)+k]
			ax[orig] += w.gax[k]
			ay[orig] += w.gay[k]
			az[orig] += w.gaz[k]
		}
	}
	return st
}

// Accel is the package-level convenience wrapper: a throwaway Walker. Hot
// paths (sim steps, benchmarks) should hold a Walker and reuse it.
func Accel(src, tgt *Tree, ni int, opt ForceOpts, ax, ay, az []float64) Stats {
	return NewWalker().Accel(src, tgt, ni, opt, ax, ay, az)
}

// AccelGroups is the package-level wrapper over a throwaway Walker.
func AccelGroups(src, tgt *Tree, groups []Group, opt ForceOpts, ax, ay, az []float64) Stats {
	return NewWalker().AccelGroups(src, tgt, groups, opt, ax, ay, az)
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resize32 grows s to length n without zeroing — callers overwrite every
// element.
func resize32(s []float32, n int) []float32 {
	if cap(s) < n {
		s = make([]float32, n)
	}
	return s[:n]
}

// growInt32 grows s to length n without zeroing — callers overwrite every
// element.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n, n+n/8)
	}
	return s[:n]
}

// appendShifts appends the periodic image offsets that could matter to buf
// (pass buf[:0] to reuse) and returns it nearest-image-first. In open mode
// just {0}.
func (t *Tree) appendShifts(buf [][3]float64, opt ForceOpts) [][3]float64 {
	if !opt.Periodic {
		return append(buf, [3]float64{0, 0, 0})
	}
	for ix := -1; ix <= 1; ix++ {
		for iy := -1; iy <= 1; iy++ {
			for iz := -1; iz <= 1; iz++ {
				buf = append(buf, [3]float64{float64(ix) * opt.L, float64(iy) * opt.L, float64(iz) * opt.L})
			}
		}
	}
	// Insertion sort by squared norm puts the primary image first for
	// cache-friendliness (27 entries; sort.Slice would allocate its closure).
	for i := 1; i < len(buf); i++ {
		v := buf[i]
		nv := v[0]*v[0] + v[1]*v[1] + v[2]*v[2]
		j := i - 1
		for j >= 0 {
			u := buf[j]
			if u[0]*u[0]+u[1]*u[1]+u[2]*u[2] <= nv {
				break
			}
			buf[j+1] = u
			j--
		}
		buf[j+1] = v
	}
	return buf
}

// collect walks the tree and appends interaction-list entries for group g
// whose coordinates are shifted by sh (i.e. sources are taken at position −sh
// relative to the group frame). The traversal stack is threaded through so
// the caller's buffer is reused; collect returns it (possibly regrown) along
// with the number of nodes visited and the number of particle and multipole
// entries appended.
func (t *Tree) collect(stack []int32, list *ppkern.Source, quads *ppkern.QuadSource, g Group, sh [3]float64, opt ForceOpts) (_ []int32, visited, nPart, nNode uint64) {
	if len(t.nodes) == 0 {
		return stack, 0, 0, 0
	}
	useQuad := quads != nil && t.quads != nil
	// Shift the group box into the source frame.
	gminx, gmaxx := g.MinX+sh[0], g.MaxX+sh[0]
	gminy, gmaxy := g.MinY+sh[1], g.MaxY+sh[1]
	gminz, gmaxz := g.MinZ+sh[2], g.MaxZ+sh[2]

	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[i]
		visited++

		// Minimum distance from group box to the node cell.
		dx := axisDist(gminx, gmaxx, nd.cx-nd.half, nd.cx+nd.half)
		dy := axisDist(gminy, gmaxy, nd.cy-nd.half, nd.cy+nd.half)
		dz := axisDist(gminz, gmaxz, nd.cz-nd.half, nd.cz+nd.half)
		dmin2 := dx*dx + dy*dy + dz*dz
		if opt.Cutoff && dmin2 > opt.Rcut*opt.Rcut {
			continue
		}

		// Opening criterion against the node's center of mass: distance from
		// the group box to the COM.
		cdx := axisDistPoint(gminx, gmaxx, nd.comx)
		cdy := axisDistPoint(gminy, gmaxy, nd.comy)
		cdz := axisDistPoint(gminz, gmaxz, nd.comz)
		d2 := cdx*cdx + cdy*cdy + cdz*cdz
		s := 2 * nd.half
		if d2 > 0 && s*s < opt.Theta*opt.Theta*d2 {
			if useQuad {
				q := t.quads[i]
				quads.Append(nd.comx-sh[0], nd.comy-sh[1], nd.comz-sh[2], nd.mass,
					q[0], q[1], q[2], q[3], q[4], q[5])
			} else {
				list.Append(nd.comx-sh[0], nd.comy-sh[1], nd.comz-sh[2], nd.mass)
			}
			nNode++
			continue
		}
		if nd.firstChild < 0 {
			for p := nd.start; p < nd.start+nd.count; p++ {
				list.Append(t.X[p]-sh[0], t.Y[p]-sh[1], t.Z[p]-sh[2], t.M[p])
				nPart++
			}
			continue
		}
		for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
			stack = append(stack, c)
		}
	}
	return stack, visited, nPart, nNode
}

// collectF32 is collect's float32 batch twin for the cutoff walk: identical
// float64 traversal (same pruning, same opening criterion, so the emitted
// list has exactly the same entries as collect's), but every accepted entry
// is appended in float32 with its position taken relative to the group
// center (cx, cy, cz) — the Phantom-GRAPE arrangement. Each coordinate is
// computed in float64 (raw − shift − center) and rounded once to float32,
// so its magnitude is bounded by Rcut plus the group's half-diagonal and
// carries full float32 resolution at that scale. Multipole-accepted nodes
// are appended the same way (monopole only — the cutoff walk has no
// quadrupole mode).
func (t *Tree) collectF32(stack []int32, list *ppkern.SourceF32, g Group, sh [3]float64, cx, cy, cz float64, opt ForceOpts) (_ []int32, visited, nPart, nNode uint64) {
	if len(t.nodes) == 0 {
		return stack, 0, 0, 0
	}
	// Shift the group box into the source frame.
	gminx, gmaxx := g.MinX+sh[0], g.MaxX+sh[0]
	gminy, gmaxy := g.MinY+sh[1], g.MaxY+sh[1]
	gminz, gmaxz := g.MinZ+sh[2], g.MaxZ+sh[2]
	// Fold the shift into the rebase offset: emitted = raw − (sh + center).
	ox, oy, oz := sh[0]+cx, sh[1]+cy, sh[2]+cz

	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[i]
		visited++

		dx := axisDist(gminx, gmaxx, nd.cx-nd.half, nd.cx+nd.half)
		dy := axisDist(gminy, gmaxy, nd.cy-nd.half, nd.cy+nd.half)
		dz := axisDist(gminz, gmaxz, nd.cz-nd.half, nd.cz+nd.half)
		dmin2 := dx*dx + dy*dy + dz*dz
		if dmin2 > opt.Rcut*opt.Rcut {
			continue
		}

		cdx := axisDistPoint(gminx, gmaxx, nd.comx)
		cdy := axisDistPoint(gminy, gmaxy, nd.comy)
		cdz := axisDistPoint(gminz, gmaxz, nd.comz)
		d2 := cdx*cdx + cdy*cdy + cdz*cdz
		s := 2 * nd.half
		if d2 > 0 && s*s < opt.Theta*opt.Theta*d2 {
			list.Append(float32(nd.comx-ox), float32(nd.comy-oy), float32(nd.comz-oz), float32(nd.mass))
			nNode++
			continue
		}
		if nd.firstChild < 0 {
			for p := nd.start; p < nd.start+nd.count; p++ {
				list.Append(float32(t.X[p]-ox), float32(t.Y[p]-oy), float32(t.Z[p]-oz), float32(t.M[p]))
				nPart++
			}
			continue
		}
		for c := nd.firstChild; c < nd.firstChild+int32(nd.nChild); c++ {
			stack = append(stack, c)
		}
	}
	return stack, visited, nPart, nNode
}

// axisDist returns the 1-D distance between intervals [alo, ahi] and
// [blo, bhi] (0 if they overlap).
func axisDist(alo, ahi, blo, bhi float64) float64 {
	if ahi < blo {
		return blo - ahi
	}
	if bhi < alo {
		return alo - bhi
	}
	return 0
}

// axisDistPoint returns the 1-D distance from interval [lo, hi] to point p.
func axisDistPoint(lo, hi, p float64) float64 {
	if p < lo {
		return lo - p
	}
	if p > hi {
		return p - hi
	}
	return 0
}

// PotentialCutoff accumulates the short-range (cutoff) potential of tgt's
// particles into pot (indexed by original order), using the same grouped
// traversal as Accel. The energy diagnostic counterpart of the force pass:
// total short-range potential energy is ½·Σ m_i·Φ_i.
func PotentialCutoff(src, tgt *Tree, ni int, opt ForceOpts, tab *ppkern.PotTable, pot []float64) Stats {
	groups := tgt.Groups(ni)
	var st Stats
	var list ppkern.Source
	var stack []int32
	buf := make([]float64, 0, 256)
	shifts := src.appendShifts(nil, opt)
	for _, g := range groups {
		list.Reset()
		var visited, nPart, nNode uint64
		for _, sh := range shifts {
			var v, p, nn uint64
			stack, v, p, nn = src.collect(stack, &list, nil, g, sh, opt)
			visited += v
			nPart += p
			nNode += nn
		}
		n := int(g.Count)
		st.Groups++
		st.SumNi += uint64(n)
		st.ListParticles += nPart
		st.ListNodes += nNode
		st.Interactions += uint64(n) * uint64(list.Len())
		st.NodesVisited += visited
		buf = resize(buf, n)
		xi := tgt.X[g.Start : g.Start+g.Count]
		yi := tgt.Y[g.Start : g.Start+g.Count]
		zi := tgt.Z[g.Start : g.Start+g.Count]
		ppkern.PotCutoff(xi, yi, zi, &list, tab, opt.G, opt.Rcut, opt.Eps2, buf)
		for k := 0; k < n; k++ {
			pot[tgt.Perm[int(g.Start)+k]] += buf[k]
		}
	}
	return st
}
