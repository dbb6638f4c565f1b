package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/synth"
)

// This file reproduces the real-data experiments of Section 6.3 on the
// simulated DBLP and Weibo corpora (see ARCHITECTURE.md, "Real-data
// substitution", for the rationale).

// RealDataResult summarizes one real-data mining run.
type RealDataResult struct {
	Graphs      int
	Patterns    int
	Runtime     time.Duration
	LongestDiam int
	// Examples renders a few long patterns in the domain's label
	// vocabulary, the analogue of the paper's Figures 21-22 and 24.
	Examples []string
}

// RunDBLP mines temporal collaboration patterns from the simulated DBLP
// author timelines: frequency threshold 2, diameter at least the length
// constraint (20 years in the paper; scaled here).
func RunDBLP(cfg Config) (*RealDataResult, error) {
	rng := cfg.rng()
	years := cfg.scaled(21, 9)
	authors := cfg.scaled(200, 12)
	db := synth.DBLP(rng, synth.DBLPOptions{
		Authors: authors, Years: years, Archetypes: authors / 4,
	})
	l := years - 1
	t0 := time.Now()
	opt := core.DefaultOptions(2, l, 1)
	opt.Concurrency = cfg.workers()
	opt.Measure = support.GraphCount
	opt.GreedyGrow = true
	res, err := core.MineDB(db, opt)
	if err != nil {
		return nil, err
	}
	out := &RealDataResult{
		Graphs:   len(db),
		Patterns: len(res.Patterns),
		Runtime:  time.Since(t0),
	}
	sort.Slice(res.Patterns, func(i, j int) bool {
		return res.Patterns[i].G.N() > res.Patterns[j].G.N()
	})
	for i, p := range res.Patterns {
		if int(p.DiamLen) > out.LongestDiam {
			out.LongestDiam = int(p.DiamLen)
		}
		if i < 3 {
			out.Examples = append(out.Examples, renderDBLPPattern(p))
		}
	}
	return out, nil
}

// renderDBLPPattern prints a timeline pattern as year slots with their
// attached collaboration labels, like Figures 21-22.
func renderDBLPPattern(p *core.Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "span=%d years, support=%d: ", p.DiamLen, p.Support())
	diam := p.Diam()
	onDiam := make(map[graph.V]int)
	for i, v := range diam {
		onDiam[v] = i
	}
	slots := make([][]string, len(diam))
	for v := 0; v < p.G.N(); v++ {
		if _, isYear := onDiam[graph.V(v)]; isYear {
			continue
		}
		for _, w := range p.G.Neighbors(graph.V(v)) {
			if yi, ok := onDiam[w]; ok {
				slots[yi] = append(slots[yi], synth.DBLPLabelName(p.G.Label(graph.V(v))))
			}
		}
	}
	for yi, s := range slots {
		if yi > 0 {
			b.WriteString("-")
		}
		if len(s) == 0 {
			b.WriteString("·")
		} else {
			sort.Strings(s)
			b.WriteString("[" + strings.Join(s, ",") + "]")
		}
	}
	return b.String()
}

// RunWeibo mines diffusion patterns from the simulated conversation
// corpus: length constraint 10 (long diffusion paths), frequency 2.
func RunWeibo(cfg Config) (*RealDataResult, error) {
	rng := cfg.rng()
	convs := cfg.scaled(500, 20)
	chainLen := cfg.scaled(13, 10)
	db := synth.Weibo(rng, synth.WeiboOptions{
		Conversations:      convs,
		AvgSize:            cfg.scaled(30, 12),
		ChainConversations: convs / 5,
		ChainLength:        chainLen,
	})
	t0 := time.Now()
	opt := core.DefaultOptions(2, chainLen, 3)
	opt.Concurrency = cfg.workers()
	opt.MinLength = 10
	if opt.MinLength > chainLen {
		opt.MinLength = chainLen
	}
	opt.Measure = support.GraphCount
	opt.GreedyGrow = true
	res, err := core.MineDB(db, opt)
	if err != nil {
		return nil, err
	}
	out := &RealDataResult{
		Graphs:   len(db),
		Patterns: len(res.Patterns),
		Runtime:  time.Since(t0),
	}
	sort.Slice(res.Patterns, func(i, j int) bool {
		return res.Patterns[i].G.N() > res.Patterns[j].G.N()
	})
	for i, p := range res.Patterns {
		if int(p.DiamLen) > out.LongestDiam {
			out.LongestDiam = int(p.DiamLen)
		}
		if i < 3 {
			out.Examples = append(out.Examples, renderWeiboPattern(p))
		}
	}
	return out, nil
}

// renderWeiboPattern prints a diffusion chain with its twigs, like
// Figure 24.
func renderWeiboPattern(p *core.Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain=%d hops (δ=%d), support=%d: ", p.DiamLen, p.MaxLevel(), p.Support())
	diam := p.Diam()
	for i, v := range diam {
		if i > 0 {
			b.WriteString("->")
		}
		b.WriteString(synth.WeiboLabelName(p.G.Label(v)))
	}
	return b.String()
}
