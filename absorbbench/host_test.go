package main

import (
	"testing"
	"time"
)

// The stopwatch takes only stolen time out: what it reports lies between
// nothing and the window's wall time, which it measures in full.
func TestStopwatchReportsAtMostTheWallTime(t *testing.T) {
	if _, _, ok := hostClock(); !ok {
		t.Log("/proc/stat unreadable: the stopwatch reports plain wall time")
	}
	w := startWatch()
	time.Sleep(30 * time.Millisecond)
	wall, unstolen := w.stop()
	if wall < 30*time.Millisecond {
		t.Fatalf("wall time %v, slept 30ms", wall)
	}
	if unstolen < 0 || unstolen > wall {
		t.Fatalf("unstolen time %v outside [0, %v]", unstolen, wall)
	}
}
