package main

import (
	"reflect"
	"testing"

	"anytime/internal/graph"
	"anytime/internal/transport"
)

// The traced ranks path (timing decorator on each transport, span tracer,
// timed Runner.Step loop) must leave the runner's behaviour unchanged: the
// runner finds the same liveness and step-gossip surfaces, takes the same
// step counts and gives bit-identical distances as on the bare path.
func TestTimedTransportLeavesRunnerUnchanged(t *testing.T) {
	const seed = 11
	sp := spec{name: "small-ranks", n: 150, m: 3, batchSize: 8, batches: 3, anchors: 2, intra: 1}
	in, err := makeInputs(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	var steps [2][]int
	var dists [2][][]graph.Dist
	for k, traced := range []bool{false, true} {
		m, err := newMesh(in.g, traced)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range in.batches {
			if _, _, err := m.absorb(b, traced); err != nil {
				t.Fatal(err)
			}
			steps[k] = append(steps[k], m.runners[0].Stats().Steps)
		}
		dists[k], err = m.gather()
		m.close()
		if err != nil {
			t.Fatal(err)
		}
		if !traced {
			continue
		}
		for i, tt := range m.timed {
			if _, ok := transport.AsLiveness(tt); !ok {
				t.Fatalf("rank %d: decorator hides the endpoint's liveness surface", i)
			}
			if _, ok := transport.AsStepReporter(tt); !ok {
				t.Fatalf("rank %d: decorator hides the endpoint's step reporter", i)
			}
			if len(tt.steps) == 0 {
				t.Fatalf("rank %d: decorator saw no steps", i)
			}
			for j, sc := range tt.steps {
				if !sc.sawData || sc.vote <= 0 {
					t.Fatalf("rank %d step %d: data exchange seen=%v, vote time %v", i, j, sc.sawData, sc.vote)
				}
			}
		}
	}
	if !reflect.DeepEqual(steps[0], steps[1]) {
		t.Fatalf("step counts differ: bare %v, decorated %v", steps[0], steps[1])
	}
	if !reflect.DeepEqual(dists[0], dists[1]) {
		t.Fatal("distances differ between the bare and the decorated transport")
	}
	c := newChecker(newOwnGraph(in.g), seed)
	for _, b := range in.batches {
		c.g.addBatch(b)
	}
	if err := c.verify(dists[1], true); err != nil {
		t.Fatalf("decorated run against the oracle: %v", err)
	}
}
