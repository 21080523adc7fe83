package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

const mib = 1 << 20

// peakRSSMiB is the process's peak resident set: VmHWM where /proc is
// readable, getrusage's ru_maxrss (KiB on Linux) otherwise.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

// memCounters reads the cumulative heap allocation and automatic GC cycle
// counters and the live heap as of the last GC.
func memCounters() (allocBytes, gcCycles, liveBytes uint64) {
	metrics.Read(memSamples)
	return memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64(), memSamples[2].Value.Uint64()
}

// heapLiveMiB forces a collection and returns the live heap it found.
func heapLiveMiB() float64 {
	runtime.GC()
	_, _, live := memCounters()
	return float64(live) / mib
}
