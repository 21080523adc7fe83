package main

import (
	"fmt"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
)

// spec is one workload's input make-up. The base graph comes from a fixed
// generator seed and --seed picks the batches, so the spread between seeds
// is that of a round's batches, not of one draw of the base graph and its
// partition. The program only ever sees the resulting graph and batches.
type spec struct {
	name      string
	n, m      int         // Barabási–Albert base graph
	weights   gen.Weights // zero value = unit weights
	batchSize int
	batches   int // batches absorbed per round
	community bool
	// preferential batches: anchors into the graph and intra-batch edges
	// per new vertex; community batches: mean anchors per new vertex.
	anchors, intra int
	extAvg         float64
	// engine workloads: cold start (core.New + Run) instead of the
	// converged warm start, and the vertex-addition strategy.
	cold     bool
	strategy core.Strategy
	// fresh: every batch attaches to the base graph and is absorbed by its
	// own copy of a converged set-up, instead of one engine absorbing a
	// growing stream; a round sets up `setups` times, one set-up for each
	// equal share of its batches.
	fresh  bool
	setups int
}

var specs = map[string]spec{
	"trickle": {name: "trickle", n: 2000, m: 3, batchSize: 16, batches: 12, anchors: 2, intra: 1},
	"regrow": {name: "regrow", n: 800, m: 3, weights: gen.Weights{Min: 1, Max: 10},
		batchSize: 48, batches: 72, community: true, extAvg: 1.5,
		cold: true, strategy: core.RepartitionS, fresh: true, setups: 3},
	"ranks-tcp": {name: "ranks-tcp", n: 800, m: 3, batchSize: 16, batches: 24, anchors: 2, intra: 1},
}

// baseSeed generates every workload's base graph.
const baseSeed = 1

// inputs are the generated base graph and the batch stream of one round.
type inputs struct {
	g       *graph.Graph
	batches []*change.VertexBatch
}

func makeInputs(sp spec, seed int64) (*inputs, error) {
	g, err := gen.BarabasiAlbert(sp.n, sp.m, sp.weights, baseSeed)
	if err != nil {
		return nil, fmt.Errorf("base graph: %w", err)
	}
	in := &inputs{g: g}
	// Batch i attaches to the graph grown by batches < i, or to the base.
	grown := g.Clone()
	for i := 0; i < sp.batches; i++ {
		bseed := seed*1_000_003 + int64(i)
		var b *change.VertexBatch
		if sp.community {
			b, err = gen.CommunityBatch(grown, sp.batchSize, sp.extAvg, sp.weights, bseed)
		} else {
			b, err = gen.PreferentialBatch(grown, sp.batchSize, sp.anchors, sp.intra, sp.weights, bseed)
		}
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		in.batches = append(in.batches, b)
		if sp.fresh {
			continue
		}
		first := grown.AddVertices(b.NumVertices)
		for _, e := range b.External {
			if err := grown.AddEdge(first+int(e.New), int(e.Existing), e.Weight); err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
		}
		for _, e := range b.Internal {
			if err := grown.AddEdge(first+int(e.A), first+int(e.B), e.Weight); err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
		}
	}
	return in, nil
}
