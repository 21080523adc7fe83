package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The steadiness report: runs per set and workload (seeds 1, 2, ...), the
// run length (BENCHMARK.json's run_seconds), and the seeds that also get a
// traced run.
const (
	steadyRuns    = 10
	steadySeconds = 30
	steadyTraced  = 3
)

// steady runs two sets of untraced runs of this binary on every workload,
// one workload per process, interleaving the sets (A B, B A, ...) with
// seeds 1 to steadyRuns in both. Per workload and end-to-end metric it
// prints each set's median and quartiles, the spread (q3-q1)/median and the
// drift of the median from set A to set B, and whether the deterministic
// cost metrics repeat exactly for every seed, with the host's steal share
// per run and the spread of absorb_ms_p50 with the steal left in beside
// it. It also makes one traced run for each of the first steadyTraced
// seeds and reports how much tracing slows absorb_ms_p50.
func steady() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := []string{"trickle", "regrow", "ranks-tcp"}
	type runs2 struct {
		a, b []*result
		// per run: the host's steal share of absorb time, and
		// absorb_ms_p50 with the steal left in (from the run's log)
		stealA, stealB, rawA, rawB []float64
	}
	got := map[string]*runs2{}
	tracedP50 := map[string][]float64{}
	for _, w := range workloads {
		got[w] = &runs2{}
	}
	for i := 0; i < steadyRuns; i++ {
		seed := int64(i + 1)
		for _, w := range workloads {
			order := []string{"A", "B"}
			if i%2 == 1 {
				order = []string{"B", "A"}
			}
			if i < steadyTraced {
				order = append(order, "T")
			}
			for _, set := range order {
				trace := "0"
				if set == "T" {
					trace = "1"
				}
				res, stderr, err := runChild(exe, w, seed, steadySeconds, trace)
				if err != nil {
					return fmt.Errorf("%s seed %d set %s: %w", w, seed, set, err)
				}
				steal, raw := 0.0, 0.0
				if m := hostRe.FindSubmatch(stderr); m != nil {
					steal, _ = strconv.ParseFloat(string(m[1]), 64)
					raw, _ = strconv.ParseFloat(string(m[2]), 64)
				}
				switch r := got[w]; set {
				case "A":
					r.a, r.stealA, r.rawA = append(r.a, res), append(r.stealA, steal), append(r.rawA, raw)
				case "B":
					r.b, r.stealB, r.rawB = append(r.b, res), append(r.stealB, steal), append(r.rawB, raw)
				case "T":
					if m := tracedRe.FindSubmatch(stderr); m != nil {
						v, _ := strconv.ParseFloat(string(m[1]), 64)
						tracedP50[w] = append(tracedP50[w], v)
					}
				}
				fmt.Fprintf(os.Stderr, "steady: %s seed %d set %s done\n", w, seed, set)
			}
		}
	}
	for _, w := range workloads {
		r := got[w]
		fmt.Printf("\n%s  (seeds 1-%d, %ds runs)\n", w, steadyRuns, steadySeconds)
		fmt.Printf("%-22s %12s %12s %12s %8s | %12s %8s | %8s\n",
			"metric", "A q1", "A median", "A q3", "A sprd", "B median", "B sprd", "drift")
		names := make([]string, 0, len(r.a[0].Metrics))
		for k := range r.a[0].Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			av, bv := values(r.a, k), values(r.b, k)
			aq, bq := quartiles(av), quartiles(bv)
			fmt.Printf("%-22s %12.4f %12.4f %12.4f %7.2f%% | %12.4f %7.2f%% | %+7.2f%%\n",
				k, aq[0], aq[1], aq[2], 100*(aq[2]-aq[0])/aq[1], bq[1], 100*(bq[2]-bq[0])/bq[1],
				100*(bq[1]-aq[1])/aq[1])
		}
		fmt.Printf("absorb_ms_p50 by seed, A/B:")
		for i := range r.a {
			fmt.Printf(" %.0f/%.0f", r.a[i].Metrics["absorb_ms_p50"].Value, r.b[i].Metrics["absorb_ms_p50"].Value)
		}
		fmt.Println()
		fmt.Printf("host steal %% of absorb time by seed, A/B:")
		for i := range r.stealA {
			fmt.Printf(" %.1f/%.1f", r.stealA[i], r.stealB[i])
		}
		fmt.Println()
		aq, bq := quartiles(r.rawA), quartiles(r.rawB)
		fmt.Printf("absorb_ms_p50 with the steal left in: A median %.2f spread %.2f%%, B median %.2f spread %.2f%%\n",
			aq[1], 100*(aq[2]-aq[0])/aq[1], bq[1], 100*(bq[2]-bq[0])/bq[1])
		exact := []string{"absorb_ops_per_vertex"}
		if w != "ranks-tcp" { // the rank path reports measured cluster time
			exact = append(exact, "absorb_virt_ms")
		}
		for _, k := range exact {
			same := true
			for i := range r.a {
				if r.a[i].Metrics[k].Value != r.b[i].Metrics[k].Value {
					same = false
				}
			}
			fmt.Printf("%s repeats exactly for every seed: %v\n", k, same)
		}
		var fa, fb, na, nb int
		for i := range r.a {
			fa, na = fa+r.a[i].Failed, na+r.a[i].Attempted
			fb, nb = fb+r.b[i].Failed, nb+r.b[i].Attempted
		}
		fmt.Printf("failed/attempted: A %d/%d, B %d/%d\n", fa, na, fb, nb)
		if t := tracedP50[w]; len(t) > 0 {
			n := len(t)
			base := median(append(values(r.a[:n], "absorb_ms_p50"), values(r.b[:n], "absorb_ms_p50")...))
			fmt.Printf("tracing overhead on absorb_ms_p50: %+.2f%% (traced median %.2f ms, untraced %.2f ms)\n",
				100*(median(t)-base)/base, median(t), base)
		}
	}
	return nil
}

var (
	tracedRe = regexp.MustCompile(`traced: absorb_ms_p50=([0-9.]+)`)
	hostRe   = regexp.MustCompile(`host steal ([0-9.]+)% of absorb time, absorb_ms_p50 with it ([0-9.]+)`)
)

// runChild runs one workload in its own process and parses the result line.
func runChild(exe, w string, seed int64, seconds int, trace string) (*result, []byte, error) {
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%v: %s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	return res, stderr.Bytes(), nil
}

func values(rs []*result, k string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[k].Value)
	}
	return v
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
