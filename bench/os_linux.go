package main

import (
	"runtime"
	"syscall"
	"time"
)

// What the harness asks of the operating system: a sleep that wakes on time,
// the process's CPU time, and its peak resident set. The benchmark measures
// on Linux; os_other.go keeps the package building elsewhere.

// The open-loop generator must wake on schedule: Go's time.Sleep rounds a
// short wait up to the netpoller's millisecond (p90 lateness 0.6-1.2 ms at a
// 167 us mean gap), which bunches arrivals into millisecond groups and lets
// the harness, not the program, decide the batch sizes. nanosleep on a locked
// OS thread with the thread's timer slack cut to 1 us wakes within tens of
// microseconds and burns no CPU.

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// preciseSleeper pins the calling goroutine to its OS thread and cuts that
// thread's timer slack; the returned function undoes the pinning.
func preciseSleeper() func() {
	runtime.LockOSThread()
	// Best effort: without it the default 50 us slack applies.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}

// preciseSleep may return early (EINTR); the caller re-reads the clock and
// sleeps again.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
