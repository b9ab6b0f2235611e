package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// WeakTwoColoring solves weak 2-coloring on graphs of odd degree Δ with
// unique identifiers, in O(log* IDSpace) rounds — the upper-bound side of
// the problem whose Ω(log* Δ) lower bound is Theorem 4 of the paper.
// Outputs are labels of problems.WeakTwoColoringPointer(Δ).
//
// The algorithm (a provably correct variant in the spirit of
// Naor–Stockmeyer):
//
//  1. Orient every edge from lower to higher ID. Since Δ is odd, every
//     node has strictly more outgoing or strictly more incoming edges;
//     its tentative color c0 is 1 ("majority out") or 0.
//  2. A node is unhappy if all neighbors share its tentative color. The
//     neighbors of an unhappy node are all same-colored, so the unhappy
//     sets W1 and W0 are closed: no unhappy node borders a node of the
//     other tentative color, and flipping unhappy nodes can never hurt a
//     happy node.
//  3. Every unhappy node v of color 1 has ≥ (Δ+1)/2 higher-ID neighbors;
//     its parent p(v) is the highest. Parent chains strictly increase in
//     ID, so they form forests whose roots attach to happy ("anchor")
//     nodes that keep color 1. Symmetrically for color 0 with lowest-ID
//     parents.
//  4. Each tree is 3-colored by Cole–Vishkin along parent chains
//     (anchors continue the chains with a deterministic virtual
//     evolution), and the 3-coloring is converted into a binary
//     keep-or-flip decision by purely local rules (top/leaf/default; see
//     bValue) that guarantee every unhappy node ends with a neighbor of
//     the opposite final color.
//  5. Each node points to a neighbor with a different final color.
type WeakTwoColoring struct {
	// IDSpace is the size of the identifier space.
	IDSpace int
}

var _ sim.Algorithm = WeakTwoColoring{}

// Name implements sim.Algorithm.
func (WeakTwoColoring) Name() string { return "weak-2-coloring-odd-degree" }

// Rounds implements sim.Algorithm.
func (a WeakTwoColoring) Rounds(n, delta int) int {
	return cvIterations(a.IDSpace) + 12
}

// Outputs implements sim.Algorithm.
func (a WeakTwoColoring) Outputs(view *sim.View) ([]core.Label, error) {
	if view.Degree%2 == 0 {
		return nil, fmt.Errorf("weak 2-coloring guarantee requires odd degree, got %d", view.Degree)
	}
	iters := cvIterations(a.IDSpace)
	own, err := finalColor(view, iters)
	if err != nil {
		return nil, err
	}
	pointerPort := -1
	for port := range view.Ports {
		nb := view.Ports[port].Sub
		if nb == nil {
			return nil, fmt.Errorf("view too shallow for neighbor color")
		}
		nbColor, err := finalColor(nb, iters)
		if err != nil {
			return nil, err
		}
		if nbColor != own {
			pointerPort = port
			break
		}
	}
	if pointerPort == -1 {
		return nil, fmt.Errorf("node %d: no differently colored neighbor (algorithm invariant violated)", view.ID)
	}
	out := make([]core.Label, view.Degree)
	for port := range out {
		// Labels of WeakTwoColoringPointer: index 2*color + (0 if
		// pointer else 1), with catalog colors {1,2} = {own=0, own=1}.
		if port == pointerPort {
			out[port] = core.Label(2 * own)
		} else {
			out[port] = core.Label(2*own + 1)
		}
	}
	return out, nil
}

// tentativeColor returns c0(v): 1 if v has more higher-ID neighbors than
// lower-ID ones. Needs view depth ≥ 1.
func tentativeColor(v *sim.View) (int, error) {
	higher := 0
	for _, p := range v.Ports {
		if p.Sub == nil {
			return 0, fmt.Errorf("view too shallow for tentative color")
		}
		if p.Sub.ID > v.ID {
			higher++
		}
	}
	if 2*higher > v.Degree {
		return 1, nil
	}
	return 0, nil
}

// unhappy reports whether all neighbors share v's tentative color. Needs
// depth ≥ 2.
func unhappy(v *sim.View) (bool, error) {
	c0, err := tentativeColor(v)
	if err != nil {
		return false, err
	}
	for _, p := range v.Ports {
		nb, err := tentativeColor(p.Sub)
		if err != nil {
			return false, err
		}
		if nb != c0 {
			return false, nil
		}
	}
	return true, nil
}

// parentPort returns the forest-parent port of an unhappy node: the
// highest-ID neighbor for tentative color 1, the lowest-ID neighbor for
// color 0 (both exist: odd degree gives a strict majority side).
func parentPort(v *sim.View) (int, error) {
	c0, err := tentativeColor(v)
	if err != nil {
		return 0, err
	}
	best := -1
	for port, p := range v.Ports {
		if c0 == 1 && p.Sub.ID <= v.ID {
			continue
		}
		if c0 == 0 && p.Sub.ID >= v.ID {
			continue
		}
		if best == -1 {
			best = port
			continue
		}
		cur := v.Ports[best].Sub.ID
		if (c0 == 1 && p.Sub.ID > cur) || (c0 == 0 && p.Sub.ID < cur) {
			best = port
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("unhappy node %d has no parent candidate (degree parity violated?)", v.ID)
	}
	return best, nil
}

// isChild reports whether the neighbor across the given port is an
// unhappy node whose parent is v. Needs depth ≥ 3 at v.
func isChild(v *sim.View, port int) (bool, error) {
	nb := v.Ports[port].Sub
	w, err := unhappy(nb)
	if err != nil {
		return false, err
	}
	if !w {
		return false, nil
	}
	pp, err := parentPort(nb)
	if err != nil {
		return false, err
	}
	return nb.Ports[pp].Sub.ID == v.ID, nil
}

// cmaxPort returns the port of v's highest-ID forest child, or -1 if v has
// no children. Needs depth ≥ 3.
func cmaxPort(v *sim.View) (int, error) {
	best := -1
	for port := range v.Ports {
		child, err := isChild(v, port)
		if err != nil {
			return 0, err
		}
		if !child {
			continue
		}
		if best == -1 || v.Ports[port].Sub.ID > v.Ports[best].Sub.ID {
			best = port
		}
	}
	return best, nil
}

// isTop reports whether unhappy node v heads its cmax-path: its parent is
// an anchor (happy) or v is not its parent's highest-ID child. Needs
// depth ≥ 4.
func isTop(v *sim.View) (bool, error) {
	pp, err := parentPort(v)
	if err != nil {
		return false, err
	}
	parent := v.Ports[pp].Sub
	w, err := unhappy(parent)
	if err != nil {
		return false, err
	}
	if !w {
		return true, nil
	}
	cp, err := cmaxPort(parent)
	if err != nil {
		return false, err
	}
	if cp == -1 {
		return false, fmt.Errorf("parent of unhappy node has no children (inconsistent view)")
	}
	return parent.Ports[cp].Sub.ID != v.ID, nil
}

// fcFinal computes the proper 3-coloring of the forest at unhappy node v:
// Cole–Vishkin along the parent chain (the anchor self-evolves with a
// deterministic virtual parent) followed by the three shift-and-recolor
// rounds, with virtual padding past the anchor.
func fcFinal(v *sim.View, iters int) (uint64, error) {
	maxLen := chainLen(iters)
	ids := make([]uint64, 0, maxLen)
	anchorIdx := -1
	cur := v
	for len(ids) < maxLen {
		ids = append(ids, uint64(cur.ID))
		w, err := unhappy(cur)
		if err != nil {
			return 0, err
		}
		if !w {
			anchorIdx = len(ids) - 1
			break
		}
		pp, err := parentPort(cur)
		if err != nil {
			return 0, err
		}
		if cur.Ports[pp].Sub == nil {
			return 0, fmt.Errorf("view too shallow while walking parent chain")
		}
		cur = cur.Ports[pp].Sub
	}

	// Phase 1: CV iterations. Positions past the anchor do not exist;
	// the anchor steps against a virtual parent (its color with the
	// lowest bit flipped), which preserves the child/parent distinctness
	// invariant.
	colors := make([]uint64, len(ids))
	copy(colors, ids)
	length := len(colors)
	for r := 0; r < iters; r++ {
		for j := 0; j < length; j++ {
			switch {
			case j == anchorIdx:
				colors[j] = cvStep(colors[j], colors[j]^1)
			case j+1 < length:
				colors[j] = cvStep(colors[j], colors[j+1])
			}
		}
		if anchorIdx == -1 {
			// No anchor in window: the last position's parent is unknown;
			// drop it.
			length--
			if length < 5 {
				return 0, fmt.Errorf("chain window exhausted (need %d ids, have %d)", maxLen, len(ids))
			}
		}
	}
	colors = colors[:length]

	// Virtual padding past the anchor: proper continuation derived from
	// the anchor's phase-1 color, so the reduction needs no special case.
	const pad = 9
	if anchorIdx >= 0 {
		base := colors[anchorIdx]
		colors = colors[:anchorIdx+1]
		for j := 1; len(colors) < anchorIdx+1+pad; j++ {
			colors = append(colors, (base+uint64(j))%6)
		}
	}
	if len(colors) < 5 {
		return 0, fmt.Errorf("phase-1 color window too short: %d", len(colors))
	}
	return sixToThree(colors), nil
}

// defaultB is the default keep-or-flip rule of a non-leaf unhappy node:
// compare the forest 3-colors of the node and its highest-ID child.
func defaultB(v *sim.View, iters int) (bool, error) {
	cp, err := cmaxPort(v)
	if err != nil {
		return false, err
	}
	if cp == -1 {
		return false, fmt.Errorf("defaultB on a leaf")
	}
	own, err := fcFinal(v, iters)
	if err != nil {
		return false, err
	}
	child, err := fcFinal(v.Ports[cp].Sub, iters)
	if err != nil {
		return false, err
	}
	return own > child, nil
}

// bValue computes the keep (true) / flip (false) decision of an unhappy
// node, per the path-decomposition rules proven in the package comment:
//
//   - leaf: the negation of its parent's decision (anchor parents count
//     as "keep");
//   - path top with a non-leaf highest child: the negation of that
//     child's default value;
//   - otherwise: the default rule.
func bValue(v *sim.View, iters int) (bool, error) {
	cp, err := cmaxPort(v)
	if err != nil {
		return false, err
	}
	if cp == -1 {
		// Leaf: negate the parent's decision.
		pp, err := parentPort(v)
		if err != nil {
			return false, err
		}
		parent := v.Ports[pp].Sub
		w, err := unhappy(parent)
		if err != nil {
			return false, err
		}
		if !w {
			return false, nil // anchor keeps; leaf flips
		}
		pb, err := bNonLeaf(parent, iters)
		if err != nil {
			return false, err
		}
		return !pb, nil
	}
	return bNonLeaf(v, iters)
}

// bNonLeaf computes the decision of a node known to have forest children.
func bNonLeaf(v *sim.View, iters int) (bool, error) {
	cp, err := cmaxPort(v)
	if err != nil {
		return false, err
	}
	if cp == -1 {
		return false, fmt.Errorf("bNonLeaf on a leaf")
	}
	top, err := isTop(v)
	if err != nil {
		return false, err
	}
	child := v.Ports[cp].Sub
	childCmax, err := cmaxPort(child)
	if err != nil {
		return false, err
	}
	if top && childCmax != -1 {
		cb, err := defaultB(child, iters)
		if err != nil {
			return false, err
		}
		return !cb, nil
	}
	return defaultB(v, iters)
}

// finalColor returns the final weak-coloring color of a node: its
// tentative color if happy; otherwise the forest decision (keep = the
// tentative color, flip = the opposite).
func finalColor(v *sim.View, iters int) (int, error) {
	c0, err := tentativeColor(v)
	if err != nil {
		return 0, err
	}
	w, err := unhappy(v)
	if err != nil {
		return 0, err
	}
	if !w {
		return c0, nil
	}
	keep, err := bValue(v, iters)
	if err != nil {
		return 0, err
	}
	if keep {
		return c0, nil
	}
	return 1 - c0, nil
}
