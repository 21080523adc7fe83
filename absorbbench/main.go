// Command absorbbench is the repository's end-to-end benchmark: it
// measures how fast the anytime-anywhere engine absorbs batches of new
// vertices to exact reconvergence, on three workloads (trickle, regrow,
// ranks-tcp; see README.md), and checks every absorbed batch against its
// own BFS or Dijkstra oracle.
//
//	absorbbench --workload trickle --seed 1 --seconds 30 --trace 0
//	absorbbench steady
//
// A run repeats whole rounds until --seconds is used up: each round sets
// the workload up from the seed's inputs and absorbs the same batches, so
// the deterministic cost metrics are a function of the seed alone. The last
// line of standard output is one JSON object with the operations attempted
// and failed and the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// minSetups is the least number of set-ups a run makes, so setup_s is a
// median.
const minSetups = 3

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "absorbbench: "+format+"\n", args...)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "steady" {
		if err := steady(); err != nil {
			logf("steady: %v", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload: trickle, regrow or ranks-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		logf("bad arguments: --workload %q --seconds %d --trace %d", *workload, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", sp.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload for the given time in whole rounds.
func run(sp spec, seed int64, budget time.Duration, traced bool) (*result, error) {
	in, err := makeInputs(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	rec := &recorder{}
	if traced {
		rec.layers = newLayers()
	}
	start := time.Now()
	for round := 1; ; round++ {
		rs := time.Now()
		if sp.name == "ranks-tcp" {
			err = ranksRound(in, seed, rec)
		} else {
			err = engineRound(sp, in, seed, rec)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		// Hand the round's state back before the next set-up.
		runtime.GC()
		debug.FreeOSMemory()
		if len(rec.setups) >= minSetups && time.Since(start)+time.Since(rs) > budget {
			break
		}
	}
	res := &result{Correct: rec.wrongSetups == 0, Attempted: len(rec.batches)}
	for _, b := range rec.batches {
		if b.failed {
			res.Failed++
		}
	}
	e2e := rec.endToEnd()
	if traced {
		res.Metrics = rec.perLayer()
		logf("%s traced: absorb_ms_p50=%.3f setup_s=%.4f set-ups=%d", sp.name,
			e2e["absorb_ms_p50"].Value, e2e["setup_s"].Value, len(rec.setups))
	} else {
		res.Metrics = e2e
	}
	steal, rawP50 := rec.host()
	logf("%s: %d set-ups, %d batches, %d failed, %.1fs; host steal %.1f%% of absorb time, absorb_ms_p50 with it %.3f",
		sp.name, len(rec.setups), res.Attempted, res.Failed, time.Since(start).Seconds(), steal, rawP50)
	return res, nil
}
