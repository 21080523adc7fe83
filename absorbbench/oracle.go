package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"anytime/internal/change"
	"anytime/internal/graph"
)

// infDist marks an unreachable vertex; it equals the program's own
// sentinel so the two matrices compare entry by entry.
const infDist = math.MaxInt32

type arc struct {
	to, w int32
}

// ownGraph is the benchmark's private copy of the grown graph. It is
// built from the generated input and grown by applying each batch's
// edges here, never by reading the program's graph back.
type ownGraph struct {
	adj  [][]arc
	unit bool // every edge weighs 1: BFS is the exact oracle
}

func newOwnGraph(g *graph.Graph) *ownGraph {
	o := &ownGraph{adj: make([][]arc, g.NumVertices()), unit: true}
	g.ForEachEdge(func(u, v int, w graph.Weight) { o.addEdge(int32(u), int32(v), int32(w)) })
	return o
}

func (o *ownGraph) n() int { return len(o.adj) }

func (o *ownGraph) addEdge(u, v, w int32) {
	o.adj[u] = append(o.adj[u], arc{v, w})
	o.adj[v] = append(o.adj[v], arc{u, w})
	if w != 1 {
		o.unit = false
	}
}

// addBatch appends the batch's vertices with IDs n..n+k-1 in batch-local
// order (the engine's and the ranks' numbering) and its edges.
func (o *ownGraph) addBatch(b *change.VertexBatch) {
	first := int32(o.n())
	for i := 0; i < b.NumVertices; i++ {
		o.adj = append(o.adj, nil)
	}
	for _, e := range b.External {
		o.addEdge(first+e.New, e.Existing, int32(e.Weight))
	}
	for _, e := range b.Internal {
		o.addEdge(first+e.A, first+e.B, int32(e.Weight))
	}
}

// distancesFrom fills dist (length n) with exact distances from s: plain
// BFS on unit-weight graphs, binary-heap Dijkstra otherwise.
func (o *ownGraph) distancesFrom(s int32, dist []int32) {
	for i := range dist {
		dist[i] = infDist
	}
	dist[s] = 0
	if o.unit {
		queue := []int32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range o.adj[u] {
				if dist[a.to] == infDist {
					dist[a.to] = dist[u] + 1
					queue = append(queue, a.to)
				}
			}
		}
		return
	}
	h := &distHeap{{s, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range o.adj[it.v] {
			if nd := it.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(h, heapItem{a.to, nd})
			}
		}
	}
}

type heapItem struct {
	v, d int32
}

type distHeap []heapItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// checker verifies the program's distance matrix after every absorbed
// batch against the benchmark's own graph copy.
type checker struct {
	g *ownGraph
	// watch is a fixed seeded sample of pre-existing vertices whose rows
	// are also checked against the previous batch: distances between
	// pre-existing vertices may only shrink when vertices are added.
	watch  []int32
	prev   [][]graph.Dist // program rows of watch after the previous batch
	seed   int64
	checks int // verifications so far; seeds each sample
	buf    []int32
}

const (
	watchSources  = 32 // fixed property-check sources
	randomSources = 16 // extra per-batch sources drawn over all vertices
)

func newChecker(g *ownGraph, seed int64) *checker {
	rng := rand.New(rand.NewSource(seed ^ 0x0c4ec4))
	c := &checker{g: g, seed: seed}
	for _, v := range rng.Perm(g.n())[:min(watchSources, g.n())] {
		c.watch = append(c.watch, int32(v))
	}
	return c
}

// fork returns a checker for another copy of the state that c was
// baselined on: g is its own fresh copy of that state's graph, the watched
// rows are c's, and the source sample goes on from c's.
func (c *checker) fork(g *ownGraph) *checker {
	c.checks++
	return &checker{g: g, watch: c.watch, prev: append([][]graph.Dist(nil), c.prev...), seed: c.seed, checks: c.checks}
}

// baseline records the program's rows of the watched sources at a
// converged state (after set-up), for the first no-increase check.
func (c *checker) baseline(dist [][]graph.Dist) {
	c.prev = c.prev[:0]
	for _, s := range c.watch {
		c.prev = append(c.prev, append([]graph.Dist(nil), dist[s]...))
	}
}

// verifySetup checks the program's converged set-up state on a seeded
// sample of sources and records the watched rows.
func (c *checker) verifySetup(dist [][]graph.Dist) error {
	if err := c.verify(dist, false); err != nil {
		return err
	}
	c.baseline(dist)
	return nil
}

// afterBatch applies the batch to the own graph copy and checks dist (the
// program's full matrix after absorbing it): exact distances on a seeded
// sample of sources, or on every source when all is set, and the
// no-increase property on the watched rows. It returns the first
// mismatch.
func (c *checker) afterBatch(b *change.VertexBatch, dist [][]graph.Dist, all bool) error {
	c.g.addBatch(b)
	if err := c.verify(dist, all); err != nil {
		return err
	}
	for i, s := range c.watch {
		old := c.prev[i]
		for t, d := range dist[s][:len(old)] {
			if d > old[t] {
				return fmt.Errorf("d(%d,%d) grew from %d to %d after vertex additions", s, t, old[t], d)
			}
		}
	}
	c.baseline(dist)
	return nil
}

// verify compares the program's rows of the sampled sources (every source
// when all is set) with the oracle's distances on the own graph copy.
func (c *checker) verify(dist [][]graph.Dist, all bool) error {
	c.checks++
	n := c.g.n()
	if len(dist) != n {
		return fmt.Errorf("program reports %d vertices, own graph has %d", len(dist), n)
	}
	var sources []int32
	if all {
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i)
		}
	} else {
		rng := rand.New(rand.NewSource(c.seed*7919 + int64(c.checks)))
		sources = append(sources, c.watch...)
		for i := 0; i < randomSources; i++ {
			sources = append(sources, int32(rng.Intn(n)))
		}
	}
	if cap(c.buf) < n {
		c.buf = make([]int32, n)
	}
	want := c.buf[:n]
	for _, s := range sources {
		if len(dist[s]) != n {
			return fmt.Errorf("row %d has %d columns, want %d", s, len(dist[s]), n)
		}
		c.g.distancesFrom(s, want)
		for t, d := range dist[s] {
			if d != want[t] {
				return fmt.Errorf("d(%d,%d) = %d, oracle says %d", s, t, d, want[t])
			}
		}
	}
	return nil
}
