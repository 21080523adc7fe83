package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"anytime/internal/change"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/rank"
	"anytime/internal/transport"
)

const numRanks = 2

// mesh is one round's ranks: a loopback TCP mesh and one runner per rank,
// all in this process.
type mesh struct {
	ts      []*transport.TCP
	timed   []*timedTransport // traced runs only
	tracers []*obs.Tracer     // traced runs only
	runners []*rank.Runner
}

// forRanks runs f for every rank concurrently (the runner's calls are
// collectives) and returns the first error. The first rank to fail calls
// abort when it is set, so that ranks blocked in a collective return too.
func forRanks(f func(i int) error, abort func()) error {
	errs := make([]error, numRanks)
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < numRanks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = f(i); errs[i] != nil && abort != nil {
				once.Do(abort)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// loopbackPeers reserves one free loopback port per rank.
func loopbackPeers() ([]transport.Peer, error) {
	peers := make([]transport.Peer, numRanks)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		peers[i] = transport.Peer{Rank: i, Addr: ln.Addr().String()}
		ln.Close()
	}
	return peers, nil
}

// newMesh connects the ranks and converges the base graph statically.
func newMesh(g *graph.Graph, traced bool) (*mesh, error) {
	m := &mesh{
		ts:      make([]*transport.TCP, numRanks),
		timed:   make([]*timedTransport, numRanks),
		tracers: make([]*obs.Tracer, numRanks),
		runners: make([]*rank.Runner, numRanks),
	}
	peers, err := loopbackPeers()
	if err != nil {
		return nil, err
	}
	err = forRanks(func(i int) error {
		t, err := transport.NewTCP(peers, i, transport.TCPOptions{})
		m.ts[i] = t
		return err
	}, nil)
	if err != nil {
		m.close()
		return nil, fmt.Errorf("mesh: %w", err)
	}
	err = forRanks(func(i int) error {
		var t transport.Transport = m.ts[i]
		cfg := rank.Config{Graph: g.Clone(), Seed: baseSeed, Workers: 1}
		if traced {
			m.timed[i] = &timedTransport{TCP: m.ts[i]}
			t = m.timed[i]
			m.tracers[i] = obs.NewTracer(1 << 16)
			cfg.Obs = m.tracers[i]
		}
		r, err := rank.New(t, cfg)
		if err != nil {
			return err
		}
		m.runners[i] = r
		_, err = r.Run()
		return err
	}, m.close)
	if err != nil {
		m.close()
		return nil, fmt.Errorf("static convergence: %w", err)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, t := range m.ts {
		if t != nil {
			t.Close()
		}
	}
}

// absorb queues the batch at rank 0 and steps every rank to convergence:
// through Runner.Run, or on traced runs through timed Runner.Step calls.
// Traced runs return rank 0's step durations and each rank's busy time per
// step (Runner.Telemetry). An error closes the mesh.
func (m *mesh) absorb(b *change.VertexBatch, traced bool) ([]time.Duration, [][]time.Duration, error) {
	if err := m.runners[0].QueueEvents(change.Event{Batch: b}); err != nil {
		m.close()
		return nil, nil, err
	}
	var stepTimes []time.Duration
	busy := make([][]time.Duration, numRanks)
	err := forRanks(func(i int) error {
		r := m.runners[i]
		if !traced {
			_, err := r.Run()
			return err
		}
		for steps := 0; steps < 10_000; steps++ {
			m.timed[i].beginStep()
			st := time.Now()
			more, err := r.Step()
			d := time.Since(st)
			m.timed[i].endStep()
			if i == 0 {
				stepTimes = append(stepTimes, d)
			}
			busy[i] = append(busy[i], r.Telemetry().StepBusy)
			if err != nil || !more {
				return err
			}
		}
		return fmt.Errorf("no convergence after 10000 steps")
	}, m.close)
	return stepTimes, busy, err
}

// gather collects the full distance matrix at rank 0.
func (m *mesh) gather() ([][]graph.Dist, error) {
	var dist [][]graph.Dist
	err := forRanks(func(i int) error {
		d, err := m.runners[i].GatherDistances()
		if i == 0 {
			dist = d
		}
		return err
	}, m.close)
	return dist, err
}

// rankCounters is a snapshot of the ranks' cumulative counters, summed
// over the ranks.
type rankCounters struct {
	relaxOps, resize int64
	sent, msgs       int64 // transport bytes and messages sent
	relax0           int64 // rank 0's relax ops alone
	timed            int   // traced runs: steps rank 0's decorator has seen
}

func (m *mesh) counters() rankCounters {
	var c rankCounters
	for i, r := range m.runners {
		st := m.ts[i].Stats()
		ops := r.Stats().RelaxOps
		if i == 0 {
			c.relax0 = ops
		}
		c.relaxOps += ops
		c.resize += r.Table().ResizeCopies
		c.sent += st.BytesSent
		c.msgs += st.MessagesSent
	}
	if m.timed[0] != nil {
		c.timed = len(m.timed[0].steps)
	}
	return c
}

// ranksRound runs one round of ranks-tcp: set up the mesh and converge the
// base graph, then absorb every batch in a closed loop.
func ranksRound(in *inputs, seed int64, rec *recorder) error {
	traced := rec.layers != nil
	w := startWatch()
	m, err := newMesh(in.g, traced)
	if err != nil {
		return err
	}
	defer m.close()
	_, took := w.stop()
	rec.setups = append(rec.setups, took)
	chk := newChecker(newOwnGraph(in.g), seed)
	dist, err := m.gather()
	if err != nil {
		return err
	}
	if err := chk.verifySetup(dist); err != nil {
		rec.wrongSetups++
		logf("set-up state: %v", err)
	}
	if l := rec.layers; l != nil {
		var ia int64
		for _, r := range m.runners {
			ia += r.Stats().IAOps
		}
		l.round("sssp.ia_ops", float64(ia)/1e6)
	}
	for i, b := range in.batches {
		runtime.GC() // every batch starts from a collected heap
		c0 := m.counters()
		steps0 := m.runners[0].Stats().Steps
		for _, tr := range m.tracers {
			tr.Reset()
		}
		a0, gc0, _ := memCounters()
		w := startWatch()
		stepTimes, busy, err := m.absorb(b, traced)
		raw, wall := w.stop()
		a1, gc1, _ := memCounters()
		// The rank path has no virtual clock: its cluster time is the
		// measured one.
		s := batchSample{wall: wall, raw: raw, verts: b.NumVertices, virt: wall}
		if err != nil {
			// The mesh is closed: count the batch as failed and end the
			// round.
			s.failed = true
			rec.batches = append(rec.batches, s)
			logf("batch %d: %v", i, err)
			return nil
		}
		c1 := m.counters()
		s.ops = c1.relaxOps - c0.relaxOps
		if l := rec.layers; l != nil {
			l.sample("dv.heap_live_mib", heapLiveMiB())
			m.layers(l, b, c0, c1, stepTimes, busy, m.runners[0].Stats().Steps-steps0)
			l.add("mem.alloc_mib", float64(a1-a0)/mib)
			l.add("mem.gc_cycles", float64(gc1-gc0))
		}
		dist, err := m.gather()
		if err != nil {
			s.failed = true
			rec.batches = append(rec.batches, s)
			logf("batch %d: gather: %v", i, err)
			return nil
		}
		if !m.runners[0].Converged() || !m.runners[1].Converged() {
			s.failed = true
			logf("batch %d: ranks stopped without converging", i)
		} else if err := chk.afterBatch(b, dist, i == len(in.batches)-1); err != nil {
			s.failed = true
			logf("batch %d: %v", i, err)
		}
		rec.batches = append(rec.batches, s)
	}
	return nil
}

// layers adds one batch's per-layer figures from rank 0's spans and
// decorator timings and from both ranks' counters and step busy times.
func (m *mesh) layers(l *layers, b *change.VertexBatch, c0, c1 rankCounters, stepTimes []time.Duration, busy [][]time.Duration, steps int) {
	var ship, exch, relax, vote, stepped time.Duration
	for _, s := range m.tracers[0].Spans() {
		switch s.Kind {
		case obs.KindRCShip:
			ship += s.WallDur
		case obs.KindRCExchange:
			exch += s.WallDur
		case obs.KindRCRelax:
			relax += s.WallDur
		case obs.KindRCStep:
			l.sample("rank.step_ms", ms(s.WallDur))
		}
	}
	var dataX time.Duration
	for _, sc := range m.timed[0].steps[c0.timed:] {
		dataX += sc.exchange
		vote += sc.vote
	}
	for _, d := range stepTimes {
		stepped += d
		l.sample("core.step_ms", ms(d))
	}
	for k := range busy[0] {
		l.sample("cluster.imbalance", obs.Imbalance([]time.Duration{busy[0][k], busy[1][k]}))
	}
	part := m.runners[0].Partition().Part
	first := int32(len(part) - b.NumVertices)
	cut := 0
	for _, e := range b.External {
		if part[first+e.New] != part[e.Existing] {
			cut++
		}
	}
	for _, e := range b.Internal {
		if part[first+e.A] != part[first+e.B] {
			cut++
		}
	}
	ops := float64(c1.relaxOps - c0.relaxOps)
	// The step's remainder after shipping, the data exchange, relaxing and
	// the vote is the runner applying the batch (plus step bookkeeping).
	l.add("core.change_ms", ms(stepped-ship-exch-relax-vote))
	l.add("core.rc_steps", float64(len(stepTimes)))
	l.add("kernel.relax_ops", ops)
	l.add("kernel.relax_ms", ms(relax))
	l.add("relax_gops", float64(c1.relax0-c0.relax0)/1e9)
	l.add("relax_s", relax.Seconds())
	l.add("dv.resize_copies", float64(c1.resize-c0.resize)/1e6)
	l.add("cluster.ship_ms", ms(ship))
	l.add("partition.new_cut_edges", float64(cut))
	l.add("rank.relax_ms", ms(relax))
	l.add("rank.relax_ops", ops)
	l.add("rank.steps", float64(steps))
	l.add("transport.exchange_ms", ms(dataX))
	l.add("transport.vote_ms", ms(vote))
	l.add("transport.wire_bytes", float64(c1.sent-c0.sent)/1024)
	l.add("transport.messages", float64(c1.msgs-c0.msgs))
}
