package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the CPU time the process has used so far, user and system,
// summed over all its threads. The kernel charges a thread only for the time
// it ran, not for time it waited for a core, nor (with paravirtual steal
// accounting) for time the virtual machine itself was not scheduled. So on a
// shared machine it varies far less from run to run than wall time, which
// grows with every neighbour's load.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail value, so
// that the tail is not one outlier.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest sample, with its
// percentile rank and the number of samples past it. With too few samples
// for any percentile to qualify it falls back to the maximum and reports
// how many samples lie beyond it (zero).
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 1 - tailBeyond
	if k < 0 {
		return s[n-1], 100, 0
	}
	return s[k], 100 * float64(k+1) / float64(n), tailBeyond
}
