package main

import (
	"bytes"
	"testing"

	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
)

// absorbOne converges a small engine, absorbs the first batch of the
// inputs and returns the program's distances before and after.
func absorbOne(t *testing.T, sp spec, seed int64) (*inputs, [][]graph.Dist, [][]graph.Dist) {
	t.Helper()
	in, err := makeInputs(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewConverged(in.g, core.Options{P: 4, Seed: seed, Strategy: sp.strategy})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Distances()
	if err := e.QueueBatch(in.batches[0]); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("engine did not reconverge")
	}
	return in, before, e.Distances()
}

var small = spec{name: "small", n: 200, m: 2, batchSize: 8, batches: 1, anchors: 2, intra: 1}

func TestCheckerAcceptsProgramDistances(t *testing.T) {
	for _, sp := range []spec{small, {name: "weighted", n: 150, m: 3, weights: gen.Weights{Min: 1, Max: 10},
		batchSize: 12, batches: 1, community: true, extAvg: 1.5, strategy: core.RepartitionS}} {
		in, before, after := absorbOne(t, sp, 3)
		c := newChecker(newOwnGraph(in.g), 3)
		if err := c.verifySetup(before); err != nil {
			t.Fatalf("%s set-up: %v", sp.name, err)
		}
		if err := c.afterBatch(in.batches[0], after, true); err != nil {
			t.Fatalf("%s batch: %v", sp.name, err)
		}
	}
}

// One corrupted distance must be reported, whether it sits in a sampled
// row or, on the all-sources check, in any row.
func TestCheckerCatchesOneCorruptDistance(t *testing.T) {
	in, before, after := absorbOne(t, small, 5)
	c := newChecker(newOwnGraph(in.g), 5)
	if err := c.verifySetup(before); err != nil {
		t.Fatal(err)
	}
	s, col := c.watch[0], len(after)-1
	after[s][col]++
	if err := c.afterBatch(in.batches[0], after, false); err == nil {
		t.Fatal("corrupt sampled distance not reported")
	}

	in, before, after = absorbOne(t, small, 5)
	c = newChecker(newOwnGraph(in.g), 5)
	if err := c.verifySetup(before); err != nil {
		t.Fatal(err)
	}
	unwatched := int32(0)
	for isWatched(c, unwatched) {
		unwatched++
	}
	after[unwatched][0]--
	if err := c.afterBatch(in.batches[0], after, true); err == nil {
		t.Fatal("corrupt distance outside the sample not reported by the all-sources check")
	}
}

// A distance between pre-existing vertices that grows after an addition is
// reported even when the new value is exact (here the earlier one was not).
func TestCheckerCatchesIncrease(t *testing.T) {
	in, before, after := absorbOne(t, small, 7)
	c := newChecker(newOwnGraph(in.g), 7)
	if err := c.verifySetup(before); err != nil {
		t.Fatal(err)
	}
	s := c.watch[0]
	t0 := int32(0)
	if s == 0 {
		t0 = 1
	}
	c.prev[0][t0] = after[s][t0] - 1
	if err := c.afterBatch(in.batches[0], after, false); err == nil {
		t.Fatal("increased distance not reported")
	}
}

func isWatched(c *checker, v int32) bool {
	for _, w := range c.watch {
		if w == v {
			return true
		}
	}
	return false
}

// Batches absorbed into restored copies of one converged set-up are each
// checked against that set-up's baseline: a fork's check leaves its
// parent's watched rows as they were, and every fork still catches a
// corrupted distance.
func TestForkedCheckersKeepTheSetUpBaseline(t *testing.T) {
	sp := spec{name: "fresh", n: 150, m: 3, weights: gen.Weights{Min: 1, Max: 10}, batchSize: 12, batches: 2,
		community: true, extAvg: 1.5, strategy: core.RepartitionS, fresh: true, setups: 1}
	in, err := makeInputs(sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{P: 4, Seed: 11, Strategy: sp.strategy}
	e, err := core.NewConverged(in.g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := e.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	c := newChecker(newOwnGraph(in.g), 11)
	if err := c.verifySetup(e.Distances()); err != nil {
		t.Fatal(err)
	}
	base := append([][]graph.Dist(nil), c.prev...)
	for i, b := range in.batches {
		r, err := core.Restore(bytes.NewReader(ckpt.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.QueueBatch(b); err != nil {
			t.Fatal(err)
		}
		r.Run()
		after := r.Distances()
		if err := c.fork(newOwnGraph(in.g)).afterBatch(b, after, true); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j := range base {
			if &c.prev[j][0] != &base[j][0] {
				t.Fatalf("batch %d: the fork's check replaced the set-up's watched row %d", i, j)
			}
		}
		after[c.watch[0]][len(after)-1]++
		if err := c.fork(newOwnGraph(in.g)).afterBatch(b, after, false); err == nil {
			t.Fatalf("batch %d: corrupt distance not reported by a fork", i)
		}
	}
}
