package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/obs"
)

// engineRound runs one round of an engine workload. trickle sets up one
// converged engine and absorbs the whole batch stream into it. regrow sets
// up sp.setups times, and absorbs every batch of its share into its own
// copy of that converged set-up, restored from an in-memory checkpoint
// outside the timed window.
func engineRound(sp spec, in *inputs, seed int64, rec *recorder) error {
	opts := core.Options{P: 8, Seed: baseSeed, Strategy: sp.strategy}
	var tr *obs.Tracer
	if rec.layers != nil {
		tr = obs.NewTracer(1 << 18)
		opts.Obs = tr
	}
	if !sp.fresh {
		e, chk, err := setUp(sp, in, seed, opts, tr, rec)
		if err != nil {
			return err
		}
		for i, b := range in.batches {
			if !absorb(e, chk, tr, b, i, i == len(in.batches)-1, rec) {
				break
			}
		}
		return nil
	}
	share := len(in.batches) / sp.setups
	for first := 0; first < len(in.batches); first += share {
		e, chk, err := setUp(sp, in, seed, opts, tr, rec)
		if err != nil {
			return err
		}
		var ckpt bytes.Buffer
		if err := e.WriteCheckpoint(&ckpt); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		for i := first; i < first+share; i++ {
			e, err := core.Restore(bytes.NewReader(ckpt.Bytes()), opts)
			if err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			absorb(e, chk.fork(newOwnGraph(in.g)), tr, in.batches[i], i, i == first+share-1, rec)
		}
	}
	return nil
}

// setUp builds a converged engine on the base graph, timed as one set-up,
// and checks its state on a sample of sources.
func setUp(sp spec, in *inputs, seed int64, opts core.Options, tr *obs.Tracer, rec *recorder) (*core.Engine, *checker, error) {
	tr.Reset()
	w := startWatch()
	var e *core.Engine
	var err error
	if sp.cold {
		if e, err = core.New(in.g, opts); err == nil {
			e.Run()
		}
	} else {
		e, err = core.NewConverged(in.g, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	_, took := w.stop()
	rec.setups = append(rec.setups, took)
	if !e.Converged() || e.Err() != nil {
		return nil, nil, fmt.Errorf("set-up did not converge (err=%v)", e.Err())
	}
	chk := newChecker(newOwnGraph(in.g), seed)
	if err := chk.verifySetup(e.Distances()); err != nil {
		rec.wrongSetups++
		logf("set-up state: %v", err)
	}
	if l := rec.layers; l != nil {
		spans := tr.Spans()
		l.round("partition.dd_ms", ms(spanUnion(spans, obs.KindDD, -1)))
		l.round("sssp.ia_ms", ms(spanUnion(spans, obs.KindIA, -1)))
		l.round("sssp.ia_ops", float64(e.Metrics().IAOps)/1e6)
	}
	return e, chk, nil
}

// absorb queues batch i, runs the engine to reconvergence and checks its
// distances (every source when all is set). It records the batch and
// reports whether the engine can take more batches: a batch the engine
// refused counts as failed and ends the stream.
func absorb(e *core.Engine, chk *checker, tr *obs.Tracer, b *change.VertexBatch, i int, all bool, rec *recorder) bool {
	runtime.GC() // every batch starts from a collected heap
	m0 := e.Metrics()
	h0 := len(e.History())
	tr.Reset()
	a0, gc0, _ := memCounters()
	w := startWatch()
	if err := e.QueueBatch(b); err != nil {
		raw, wall := w.stop()
		rec.batches = append(rec.batches, batchSample{wall: wall, raw: raw, verts: b.NumVertices, failed: true})
		logf("batch %d: %v", i, err)
		return false
	}
	if rec.layers == nil {
		e.Run()
	} else {
		for steps := 0; !e.Converged() && e.Err() == nil && steps < e.Options().MaxRCSteps; steps++ {
			st := time.Now()
			e.Step()
			rec.layers.sample("core.step_ms", ms(time.Since(st)))
		}
	}
	raw, wall := w.stop()
	a1, gc1, _ := memCounters()
	m1 := e.Metrics()
	s := batchSample{
		wall:  wall,
		raw:   raw,
		verts: b.NumVertices,
		virt:  m1.VirtualTime - m0.VirtualTime,
		ops:   (m1.RCOps - m0.RCOps) + (m1.ChangeOps - m0.ChangeOps),
	}
	if l := rec.layers; l != nil {
		l.sample("dv.heap_live_mib", heapLiveMiB())
		engineLayers(l, tr, e.History()[h0:], m0, m1)
		l.add("mem.alloc_mib", float64(a1-a0)/mib)
		l.add("mem.gc_cycles", float64(gc1-gc0))
	}
	if !e.Converged() || e.Err() != nil {
		s.failed = true
		logf("batch %d: no exact reconvergence (err=%v)", i, e.Err())
	} else if err := chk.afterBatch(b, e.Distances(), all); err != nil {
		s.failed = true
		logf("batch %d: %v", i, err)
	}
	rec.batches = append(rec.batches, s)
	return true
}

// engineLayers adds one batch's per-layer figures from the engine's spans,
// step history and counters.
func engineLayers(l *layers, tr *obs.Tracer, hist []core.StepStats, m0, m1 core.Metrics) {
	if d := tr.Dropped(); d > 0 {
		logf("span ring overwrote %d spans; per-layer times are short", d)
	}
	spans := tr.Spans()
	var relax, refine, ship time.Duration
	for _, h := range hist {
		st := int32(h.Step)
		rf := spanUnion(spans, obs.KindRCRefineTile, st)
		relax += spanUnion(spans, obs.KindRCRelax, st) - rf
		refine += rf
		ship += spanUnion(spans, obs.KindRCShip, st)
		l.sample("cluster.imbalance", h.Imbalance)
	}
	rcOps := m1.RCOps - m0.RCOps
	l.add("core.change_ms", ms(spanUnion(spans, obs.KindChange, -1)))
	l.add("core.change_ops", float64(m1.ChangeOps-m0.ChangeOps))
	l.add("core.rc_steps", float64(len(hist)))
	l.add("kernel.relax_ops", float64(rcOps))
	l.add("kernel.relax_ms", ms(relax))
	l.add("kernel.refine_ms", ms(refine))
	l.add("relax_gops", float64(rcOps)/1e9)
	l.add("relax_s", (relax + refine).Seconds())
	l.add("dv.resize_copies", float64(m1.ResizeCopies-m0.ResizeCopies)/1e6)
	l.add("cluster.ship_bytes", float64(m1.Comm.Bytes-m0.Comm.Bytes)/1024)
	l.add("cluster.messages", float64(m1.Comm.Messages-m0.Comm.Messages))
	l.add("cluster.ship_ms", ms(ship))
	l.add("partition.rows_migrated", float64(m1.RowsMigrated-m0.RowsMigrated))
	l.add("partition.new_cut_edges", float64(m1.NewCutEdges-m0.NewCutEdges))
}
