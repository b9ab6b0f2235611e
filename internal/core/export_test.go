package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
)

// Test-only exports of internal machinery for cross-validation.

// MaximalNodeSetConfigKeys runs the maximal-set enumeration and returns
// the canonical keys of the maximal set-configurations.
func MaximalNodeSetConfigKeys(half *Problem, maxStates int) ([]string, error) {
	configs, arena, err := maximalNodeSetConfigs(half, speedupOptions{maxStates: maxStates})
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(configs))
	for i, sc := range configs {
		keys[i] = sc.canonicalKey(arena)
	}
	return keys, nil
}

// canonicalKey renders a set-config's canonical identity string (set
// key, '#', multiplicity, '|'); groups are already in content order, so
// the rendering is comparable across arenas.
func (sc setConfig) canonicalKey(a *setArena) string {
	out := ""
	for _, g := range sc.groups {
		out += a.view(g.set).Key() + "#" + fmt.Sprint(g.count) + "|"
	}
	return out
}

// BruteMaximalNodeSetConfigKeys enumerates every multiset of non-empty
// subsets of the alphabet, keeps those whose every choice is in the node
// constraint, filters to the domination-maximal ones, and returns their
// canonical keys. Exponential; for tiny instances only.
func BruteMaximalNodeSetConfigKeys(half *Problem) []string {
	valid, arena := bruteValidNodeSetConfigs(half)
	var keys []string
	for i, sc := range valid {
		maximal := true
		for j, other := range valid {
			if i != j && sc.dominatedBy(arena, other) && !other.dominatedBy(arena, sc) {
				maximal = false
				break
			}
		}
		if maximal {
			keys = append(keys, sc.canonicalKey(arena))
		}
	}
	return dedupSorted(keys)
}

// BruteValidNodeSetConfigCount counts, by the same power-set brute
// force, every multiset of non-empty subsets whose every choice is in
// the node constraint: the state space the exploration visits,
// hence the count its state budget is charged against.
func BruteValidNodeSetConfigCount(half *Problem) int {
	valid, _ := bruteValidNodeSetConfigs(half)
	return len(valid)
}

// GrownValidNodeSetConfigCount counts the valid set-configurations of
// half by definition rather than by reverse search: the closure of the
// singleton roots under valid single-label growth, breadth-first and
// deduplicated by canonical key (the set handles and multiplicities of
// the canonical groups, which identify a configuration within one
// arena). It stops with ok false once the count exceeds limit.
func GrownValidNodeSetConfigCount(half *Problem, limit int) (count int, ok bool) {
	arena := newSetArena(half.Alpha.Size())
	seen := map[string]bool{}
	var queue []setConfig
	admit := func(groups []setGroup) {
		sc := newSetConfig(arena, groups)
		var key []byte
		for _, g := range sc.groups {
			key = append(binary.LittleEndian.AppendUint32(key, uint32(g.set)), byte(g.count))
		}
		if !seen[string(key)] && sc.allChoicesIn(arena, half.Node, nil) {
			seen[string(key)] = true
			queue = append(queue, sc)
		}
	}
	for _, cfg := range half.Node.Configs() {
		var groups []setGroup
		cfg.ForEach(func(l Label, c int) {
			groups = append(groups, setGroup{set: bsFrom(arena.n, []int{int(l)}), count: c})
		})
		admit(groups)
	}
	for len(queue) > 0 && len(seen) <= limit {
		sc := queue[0]
		queue = queue[1:]
		for gi, g := range sc.groups {
			for l := 0; l < arena.n; l++ {
				if arena.view(g.set).Contains(l) {
					continue
				}
				grown := arena.view(g.set).Clone()
				grown.Add(l)
				groups := []setGroup{{set: grown, count: 1}}
				for j, h := range sc.groups {
					c := h.count
					if j == gi {
						c--
					}
					groups = append(groups, setGroup{set: arena.view(h.set), count: c})
				}
				admit(groups)
			}
		}
	}
	return len(seen), len(seen) <= limit
}

// bruteValidNodeSetConfigs enumerates the valid multisets of non-empty
// subsets of the alphabet (each exactly once).
func bruteValidNodeSetConfigs(half *Problem) ([]setConfig, *setArena) {
	n := half.Alpha.Size()
	arena := newSetArena(n)
	sets := allNonEmptySubsets(n)
	var valid []setConfig
	enumerateMultisets(len(sets), half.Delta(), func(counts map[int]int) {
		groups := make([]setGroup, 0, len(counts))
		for si, c := range counts {
			groups = append(groups, setGroup{set: sets[si], count: c})
		}
		sc := newSetConfig(arena, groups)
		if sc.allChoicesIn(arena, half.Node, nil) {
			valid = append(valid, sc)
		}
	})
	return valid, arena
}

// dominatedBy reports whether sc is entrywise dominated by other: there is
// a matching between slots such that each set of sc is a subset of its
// partner in other. Used by the brute-force reference.
func (sc setConfig) dominatedBy(a *setArena, other setConfig) bool {
	if sc.arity() != other.arity() {
		return false
	}
	// Bipartite matching between expanded slots with the subset relation.
	left := sc.expand(a)
	right := other.expand(a)
	adj := make([][]int, len(left))
	for i, x := range left {
		for j, y := range right {
			if x.SubsetOf(y) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchR := make([]int, len(right))
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(u int, seen []bool) bool
	try = func(u int, seen []bool) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if matchR[v] == -1 || try(matchR[v], seen) {
				matchR[v] = u
				return true
			}
		}
		return false
	}
	for u := range left {
		seen := make([]bool, len(right))
		if !try(u, seen) {
			return false
		}
	}
	return true
}

// expand returns the slots of the set-config as a flat slice of sets.
func (sc setConfig) expand(a *setArena) []bitset.Set {
	out := make([]bitset.Set, 0, sc.arity())
	for _, g := range sc.groups {
		s := a.view(g.set)
		for i := 0; i < g.count; i++ {
			out = append(out, s)
		}
	}
	return out
}

// arity returns the total slot count.
func (sc setConfig) arity() int {
	total := 0
	for _, g := range sc.groups {
		total += g.count
	}
	return total
}

func dedupSorted(keys []string) []string {
	seen := map[string]bool{}
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// EdgePairKeysOf extracts the canonical provenance-pair keys of a derived
// problem's edge constraint for comparison with MaximalEdgePairsBrute.
func EdgePairKeysOf(derived *Problem) []string {
	var out []string
	for _, cfg := range derived.Edge.Configs() {
		labels := cfg.Expand()
		a, okA := derived.Alpha.Provenance(labels[0])
		b, okB := derived.Alpha.Provenance(labels[1])
		if !okA || !okB {
			continue
		}
		ka, kb := a.Key(), b.Key()
		if kb < ka {
			ka, kb = kb, ka
		}
		out = append(out, ka+"|"+kb)
	}
	return out
}
