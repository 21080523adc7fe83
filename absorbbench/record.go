package main

import (
	"sort"
	"time"

	"anytime/internal/obs"
)

// batchSample is one absorbed batch: queued, reconverged and checked.
type batchSample struct {
	wall   time.Duration // from queueing the batch to reconvergence, steal taken out
	raw    time.Duration // the same with the host's steal time left in
	verts  int
	virt   time.Duration // cluster time: LogP-virtual (engine) or measured (ranks)
	ops    int64         // relax and change ops of the absorption
	failed bool          // wrong distances, or no exact reconvergence
}

// recorder collects one run's samples over all of its rounds. Every
// duration in it is wall time with the host's steal time taken out (see
// host.go) unless it says otherwise.
type recorder struct {
	setups      []time.Duration
	wrongSetups int // set-ups whose converged state failed the oracle
	batches     []batchSample
	layers      *layers // nil on untraced runs
}

// layers accumulates the traced run's per-layer figures: sums over all
// batches (reported per batch or per absorbed vertex), per-round set-up
// figures and per-step samples (reported as medians).
type layers struct {
	sum     map[string]float64
	rounds  map[string][]float64
	samples map[string][]float64
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, rounds: map[string][]float64{}, samples: map[string][]float64{}}
}

func (l *layers) add(name string, v float64)    { l.sum[name] += v }
func (l *layers) round(name string, v float64)  { l.rounds[name] = append(l.rounds[name], v) }
func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics of an untraced run.
func (r *recorder) endToEnd() map[string]metric {
	var setups, walls []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	var wall, virt time.Duration
	var verts int
	var ops int64
	for _, b := range r.batches {
		walls = append(walls, ms(b.wall))
		wall += b.wall
		virt += b.virt
		verts += b.verts
		ops += b.ops
	}
	nb := time.Duration(len(r.batches))
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"absorb_vps":    {float64(verts) / wall.Seconds(), "vertices/s"},
		"absorb_ms_p50": {median(walls), "ms"},
		// Integer division first: a run of R identical rounds then reads
		// exactly the same as one round.
		"absorb_virt_ms":        {ms(virt / nb), "ms"},
		"absorb_ops_per_vertex": {float64(ops) / float64(verts), "ops/vertex"},
		"peak_rss_mib":          {peakRSSMiB(), "MiB"},
	}
}

// host returns the share of the batches' wall time that the host stole, in
// percent, and their median wall time with the steal left in.
func (r *recorder) host() (stealPct, rawP50 float64) {
	var raws []float64
	var wall, raw time.Duration
	for _, b := range r.batches {
		raws = append(raws, ms(b.raw))
		wall += b.wall
		raw += b.raw
	}
	if raw > 0 {
		stealPct = 100 * (1 - float64(wall)/float64(raw))
	}
	return stealPct, median(raws)
}

// perLayer derives the traced run's per-layer metrics. A layer a workload
// does not exercise reads 0 (see README.md for which layer runs where).
func (r *recorder) perLayer() map[string]metric {
	l := r.layers
	nb := float64(len(r.batches))
	verts := 0
	for _, b := range r.batches {
		verts += b.verts
	}
	steal, rawP50 := r.host()
	perBatch := func(k string) float64 { return l.sum[k] / nb }
	perVertex := func(k string) float64 { return l.sum[k] / float64(verts) }
	rate := 0.0
	if s := l.sum["relax_s"]; s > 0 {
		rate = l.sum["relax_gops"] / s
	}
	return map[string]metric{
		"core.change_ms":          {perBatch("core.change_ms"), "ms/batch"},
		"core.change_ops":         {perVertex("core.change_ops"), "ops/vertex"},
		"core.rc_steps":           {perBatch("core.rc_steps"), "steps/batch"},
		"core.step_ms_p50":        {median(l.samples["core.step_ms"]), "ms"},
		"kernel.relax_ops":        {perVertex("kernel.relax_ops"), "ops/vertex"},
		"kernel.relax_ms":         {perBatch("kernel.relax_ms"), "ms/batch"},
		"kernel.refine_ms":        {perBatch("kernel.refine_ms"), "ms/batch"},
		"kernel.rate_gops":        {rate, "Gops/s"},
		"dv.resize_copies":        {perBatch("dv.resize_copies"), "Mcells/batch"},
		"dv.heap_live_mib":        {median(l.samples["dv.heap_live_mib"]), "MiB"},
		"mem.alloc_mib":           {perBatch("mem.alloc_mib"), "MiB/batch"},
		"mem.gc_cycles":           {l.sum["mem.gc_cycles"], "count/run"},
		"cluster.ship_bytes":      {perBatch("cluster.ship_bytes"), "KiB/batch"},
		"cluster.messages":        {perBatch("cluster.messages"), "msgs/batch"},
		"cluster.ship_ms":         {perBatch("cluster.ship_ms"), "ms/batch"},
		"cluster.imbalance":       {median(l.samples["cluster.imbalance"]), "max/mean"},
		"partition.dd_ms":         {median(l.rounds["partition.dd_ms"]), "ms"},
		"partition.rows_migrated": {perBatch("partition.rows_migrated"), "rows/batch"},
		"partition.new_cut_edges": {perBatch("partition.new_cut_edges"), "edges/batch"},
		"sssp.ia_ms":              {median(l.rounds["sssp.ia_ms"]), "ms"},
		"sssp.ia_ops":             {median(l.rounds["sssp.ia_ops"]), "Mops"},
		"rank.step_ms_p50":        {median(l.samples["rank.step_ms"]), "ms"},
		"rank.relax_ms":           {perBatch("rank.relax_ms"), "ms/batch"},
		"rank.relax_ops":          {perVertex("rank.relax_ops"), "ops/vertex"},
		"rank.steps":              {perBatch("rank.steps"), "steps/batch"},
		"transport.exchange_ms":   {perBatch("transport.exchange_ms"), "ms/batch"},
		"transport.vote_ms":       {perBatch("transport.vote_ms"), "ms/batch"},
		"transport.wire_bytes":    {perBatch("transport.wire_bytes"), "KiB/batch"},
		"transport.messages":      {perBatch("transport.messages"), "msgs/batch"},
		"host.steal_pct":          {steal, "%"},
		"host.raw_ms_p50":         {rawP50, "ms"},
	}
}

// spanUnion returns the wall time covered by the spans of kind k recorded
// in RC step `step` (any step when step < 0): the union of their
// intervals, so P concurrent per-processor spans count once.
func spanUnion(spans []obs.Span, k obs.Kind, step int32) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, s := range spans {
		if s.Kind == k && (step < 0 || s.Step == step) {
			ivs = append(ivs, iv{s.Wall, s.Wall + s.WallDur})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi time.Duration
	for i, v := range ivs {
		if i == 0 || v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}
