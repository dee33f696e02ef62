package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The development host is a virtual machine whose speed changes by a
// quarter or more between sets of runs minutes apart, and its floating-point
// speed switches between two modes about 1.75× apart from one quarter
// second to the next (NOTES.md, "Noise"). refKernel is a fixed computation
// that is the benchmark's own, a 96×96 matrix product: its thread CPU time
// follows those switches sample for sample, as the simulator's dense linear
// algebra does. The bounded time metrics are scaled by refNominalUS over the
// kernel's time measured beside them, which turns them into times at one
// fixed reference speed. No change to the program moves the kernel, so a
// slower program still reads slower.

const (
	// refNominalUS is the reference speed: about the kernel's thread CPU
	// time on the two-vCPU development host in its fast mode.
	refNominalUS = 500.0
	refN         = 96
	// probeEvery is how often the speed probe samples during a run; one
	// sample costs well under 1 % of a CPU.
	probeEvery = 100 * time.Millisecond
)

type refKernel struct{ a, b, c []float64 }

func newRefKernel() *refKernel {
	k := &refKernel{a: make([]float64, refN*refN), b: make([]float64, refN*refN), c: make([]float64, refN*refN)}
	for i := range k.a {
		k.a[i], k.b[i] = float64(i%7)*0.25, float64(i%5)*0.5
	}
	return k
}

func (k *refKernel) run() {
	for i := 0; i < refN; i++ {
		for l := 0; l < refN; l++ {
			ail := k.a[i*refN+l]
			row, crow := k.b[l*refN:l*refN+refN], k.c[i*refN:i*refN+refN]
			for j := range crow {
				crow[j] += ail * row[j]
			}
		}
	}
}

// timeUS is the kernel's thread CPU time in microseconds, the median of
// reps runs on the calling thread, or 0 where thread CPU time is unknown.
func (k *refKernel) timeUS(reps int) float64 {
	var ts []float64
	for r := 0; r < reps; r++ {
		c0 := threadCPU()
		k.run()
		if c1 := threadCPU(); c0 >= 0 && c1 > c0 {
			ts = append(ts, float64(c1-c0)/1e3)
		}
	}
	return median(ts)
}

// threadCPU is the calling OS thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID), or -1 where it cannot be read.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return ts.Nano()
}

// A speedProbe samples the kernel every probeEvery on its own OS thread
// while a run works.
type speedProbe struct {
	stop, done chan struct{}
	samples    []float64 // microseconds of thread CPU time per kernel run
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if us := k.timeUS(1); us > 0 {
					p.samples = append(p.samples, us)
				}
			}
		}
	}()
	return p
}

// finish stops the probe and returns the factor that turns a CPU time
// measured during the run into one at the reference speed, the kernel's
// mean time and the number of samples. A CPU time adds up the fast and the
// slow stretches of the run, so it is scaled by the mean speed, not the
// median, whose value jumps between the two modes; the tenth of samples at
// either end is dropped.
func (p *speedProbe) finish() (scale, meanUS float64, n int) {
	close(p.stop)
	<-p.done
	s := sortedCopy(p.samples)
	s = s[len(s)/10 : len(s)-len(s)/10]
	m := mean(s)
	if m <= 0 {
		return 1, 0, 0
	}
	return refNominalUS / m, m, len(p.samples)
}
