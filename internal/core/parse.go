package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a problem from a Round-Eliminator-like text format:
//
//	# weak 2-coloring, pointer form, Δ=3
//	node:
//	1A 1P^2
//	2A 2P^2
//	edge:
//	1A 2A
//	1A 2P
//	...
//
// Each non-empty line is one configuration: whitespace-separated label
// names, with "name^k" denoting multiplicity k. All node lines must have
// the same total multiplicity (that arity is Δ); edge lines must have
// total multiplicity 2. The alphabet is inferred from the labels used, in
// first-occurrence order. Lines starting with '#' are comments.
func Parse(text string) (*Problem, error) {
	type rawLine struct {
		section string
		items   []string
		lineNo  int
	}
	var lines []rawLine
	section := ""
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch strings.ToLower(line) {
		case "node:", "nodes:":
			section = "node"
			continue
		case "edge:", "edges:":
			section = "edge"
			continue
		}
		if section == "" {
			return nil, fmt.Errorf("core: parse: line %d: configuration before a 'node:' or 'edge:' header", i+1)
		}
		lines = append(lines, rawLine{section: section, items: strings.Fields(line), lineNo: i + 1})
	}

	alpha := &Alphabet{index: map[string]Label{}}
	getLabel := func(name string) (Label, error) {
		if l, ok := alpha.index[name]; ok {
			return l, nil
		}
		// Names that collide with the line syntax cannot round-trip
		// through String (a rendered line could start with '#' or read
		// as a section header), so reject them up front.
		if strings.ContainsRune(name, '#') {
			return 0, fmt.Errorf("label name %q contains '#'", name)
		}
		switch strings.ToLower(name) {
		case "node:", "nodes:", "edge:", "edges:":
			return 0, fmt.Errorf("label name %q collides with a section header", name)
		}
		if err := alpha.add(name); err != nil {
			return 0, err
		}
		return alpha.index[name], nil
	}

	var nodeConfigs, edgeConfigs []Config
	var nodeLineNos []int
	for _, rl := range lines {
		cfg, err := parseConfigLine(rl.items, getLabel)
		if err != nil {
			return nil, fmt.Errorf("core: parse: line %d: %v", rl.lineNo, err)
		}
		switch rl.section {
		case "node":
			nodeConfigs = append(nodeConfigs, cfg)
			nodeLineNos = append(nodeLineNos, rl.lineNo)
		case "edge":
			if cfg.Arity() != 2 {
				return nil, fmt.Errorf("core: parse: line %d: edge configuration has arity %d, want 2", rl.lineNo, cfg.Arity())
			}
			edgeConfigs = append(edgeConfigs, cfg)
		}
	}
	if len(nodeConfigs) == 0 {
		return nil, fmt.Errorf("core: parse: no node configurations")
	}
	if len(edgeConfigs) == 0 {
		return nil, fmt.Errorf("core: parse: no edge configurations")
	}
	delta := nodeConfigs[0].Arity()
	for i, cfg := range nodeConfigs {
		if cfg.Arity() != delta {
			return nil, fmt.Errorf("core: parse: line %d: node configuration has arity %d, want %d", nodeLineNos[i], cfg.Arity(), delta)
		}
	}

	node := NewConstraint(delta)
	for _, cfg := range nodeConfigs {
		node.MustAdd(cfg)
	}
	edge := NewConstraint(2)
	for _, cfg := range edgeConfigs {
		edge.MustAdd(cfg)
	}
	return NewProblem(alpha, edge, node)
}

// MaxDelta is the largest configuration arity, and so the largest Δ,
// a problem may have: the most SecondHalfStep supports, since its
// maximal-set search keys a multiplicity vector by one byte per label.
// Both parsers refuse a line whose multiplicities sum past it.
const MaxDelta = 255

// parseConfigLine reads one configuration line's items — "name" or
// "name^k" — into a Config, resolving each name through label. It
// refuses an arity beyond MaxDelta while summing, before the sum can
// overflow, so no text builds a problem that no step can run on.
func parseConfigLine(items []string, label func(name string) (Label, error)) (Config, error) {
	counts := map[Label]int{}
	arity := 0
	for _, item := range items {
		name, mult := item, 1
		if idx := strings.IndexByte(item, '^'); idx >= 0 {
			name = item[:idx]
			m, err := strconv.Atoi(item[idx+1:])
			if err != nil || m < 1 {
				return Config{}, fmt.Errorf("bad multiplicity in %q", item)
			}
			mult = m
		}
		if mult > MaxDelta-arity {
			return Config{}, fmt.Errorf("configuration arity exceeds the supported Δ = %d", MaxDelta)
		}
		arity += mult
		if name == "" {
			return Config{}, fmt.Errorf("empty label name in %q", item)
		}
		l, err := label(name)
		if err != nil {
			return Config{}, err
		}
		counts[l] += mult
	}
	return NewConfigCounts(counts)
}

// MustParse is Parse but panics on error; for literals in tests/examples.
func MustParse(text string) *Problem {
	p, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return p
}
