package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor takes the vCPUs away from time
// to time to run other guests; the guest kernel counts that as steal time.
// On the 2-vCPU box the reference figures come from, it came in spells of
// minutes at up to 27% of the CPU time, and a run's wall time per batch
// rose with it (regrow: +30% at 22% steal; see README.md). No change to
// the program moves it, so every wall-clock figure this benchmark bounds is
// reported with it taken out: a window's wall time times the share of the
// machine's CPU time in that window that was not stolen.

// hostClock reads the machine's cumulative steal and total CPU time in
// clock ticks from the first line of /proc/stat. ok is false where it
// cannot be read; nothing is taken out then.
func hostClock() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stopwatch times one window on the wall clock and reads the host's steal
// time at both ends.
type stopwatch struct {
	t0            time.Time
	steal0, total uint64
	ok            bool
}

func startWatch() stopwatch {
	var w stopwatch
	w.steal0, w.total, w.ok = hostClock()
	w.t0 = time.Now()
	return w
}

// stop returns the window's wall time, and that wall time less the share of
// the machine's CPU time in the window that was stolen.
func (w stopwatch) stop() (wall, unstolen time.Duration) {
	wall = time.Since(w.t0)
	steal, total, ok := hostClock()
	if !ok || !w.ok || total <= w.total || steal < w.steal0 {
		return wall, wall
	}
	share := float64(steal-w.steal0) / float64(total-w.total)
	return wall, time.Duration(float64(wall) * (1 - min(share, 1)))
}
