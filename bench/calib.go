package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"time"
)

// calibKernel is a fixed CPU-bound loop (HMAC-SHA256 over a 64-byte block)
// whose run time says how fast the machine was at that moment. A traced run
// times it between rounds; the spread between its best and median reading is
// how far to trust the run's CPU-bound numbers.
func calibKernel() time.Duration {
	key := make([]byte, 32)
	msg := make([]byte, 64)
	mac := hmac.New(sha256.New, key)
	var sum []byte
	t0 := time.Now()
	for i := 0; i < 20000; i++ {
		mac.Reset()
		msg[0] = byte(i)
		mac.Write(msg)
		sum = mac.Sum(sum[:0])
	}
	d := time.Since(t0)
	calibSink = sum
	return d
}

var calibSink []byte

// calibrate times the kernel n times.
func calibrate(n int) estimate {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ms(calibKernel())
	}
	return bestRounds(xs, false, mean(xs))
}
