package core

// Test-only exports of internal machinery for cross-validation.

// MaximalNodeSetConfigKeys runs the given enumeration strategy and returns
// the canonical keys of the maximal set-configurations.
func MaximalNodeSetConfigKeys(half *Problem, s Strategy, maxStates int) ([]string, error) {
	configs, arena, err := maximalNodeSetConfigs(half, speedupOptions{maxStates: maxStates, strategy: s})
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(configs))
	for i, sc := range configs {
		keys[i] = sc.canonicalKey(arena)
	}
	return keys, nil
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
// the node constraint: the state space the exploration strategy visits,
// hence the count its state budget is charged against.
func BruteValidNodeSetConfigCount(half *Problem) int {
	valid, _ := bruteValidNodeSetConfigs(half)
	return len(valid)
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
