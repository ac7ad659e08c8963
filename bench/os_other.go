//go:build !linux

package main

import (
	"runtime"
	"time"
)

// Off Linux the package builds and its output checks run, but it is not a
// measuring instrument: the sleep is time.Sleep with its millisecond
// rounding, CPU time reads 0, and peak memory is what the Go runtime holds.

func preciseSleeper() func() { return func() {} }

func preciseSleep(d time.Duration) { time.Sleep(d) }

func cpuTimes() (user, sys time.Duration) { return 0, 0 }

func peakRSSMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
