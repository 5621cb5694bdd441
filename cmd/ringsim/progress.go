package main

// Wall-clock reporting for long scale runs lives in this file alone:
// it is the one place in cmd/ringsim allowed to read real time (see
// internal/lint policy TimeExemptFiles). Simulation logic never does.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// progressEvery paces the stderr progress line of a scale run.
const progressEvery = 5 * time.Second

// watchWall reports a running scale election to stderr every few
// seconds and prints one final timing line when the returned stop
// function runs. The simulator has no concurrency-safe counters — its
// hot loop stays free of atomics — so the ticker reports only what is
// safe from another goroutine: elapsed wall time and resident set size.
// Delivery and coalescing totals appear in the caller's end-of-run
// summary.
func watchWall() (stop func()) {
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(progressEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(os.Stderr, "ringsim: %s  rss=%dMB\n",
					time.Since(start).Round(time.Second), statusMB("VmRSS:"))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		fmt.Fprintf(os.Stderr, "ringsim: finished in %s  peak-rss=%dMB\n",
			time.Since(start).Round(time.Millisecond), statusMB("VmHWM:"))
	}
}

// statusMB returns a memory field of /proc/self/status in MiB — VmRSS
// is the current resident set size, VmHWM its peak; 0 where the file or
// field is unavailable.
func statusMB(field string) uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
