package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The machines this benchmark runs on share their cores with other
// tenants, and their speed drifts by a quarter over minutes — longer
// than any run, so no median inside a run removes it — and swings by a
// fifth from one second to the next. A run therefore times a fixed
// reference kernel four times a second while it measures, and reports
// every time at the reference speed: a time t measured while the kernel
// took k is reported as t * refNominal / k, and a rate r as
// r * k / refNominal. The kernel touches none of the analyzer's code,
// so a change to the analyzer never changes it, and it runs while no
// request is in flight, so it does not slow the requests down. On a
// machine where the kernel takes refNominal, reported and raw values
// agree.

// refNominal is the kernel's median time between requests on the
// 2-vCPU Xeon VM the baseline was measured on.
const refNominal = 5500 * time.Microsecond

// speedPeriod is how often the speedometer times the kernel; the
// samples within speedSpan of a moment give the speed at that moment.
const (
	speedPeriod = 250 * time.Millisecond
	speedSpan   = 1500 * time.Millisecond
)

// refKernel is a fixed, allocation-free mix of map updates and sorting:
// the hashing, branching and memory traffic of the analyzer's own code.
type refKernel struct {
	keys, buf []int
	m         map[int]int
	sum       int // keeps every run's results live, so none is optimized away
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{keys: make([]int, 1<<15), buf: make([]int, 1<<15), m: make(map[int]int, 1<<16)}
	for i := range k.keys {
		k.keys[i] = rng.Int()
	}
	k.run()
	return k
}

func (k *refKernel) run() {
	clear(k.m)
	for i, x := range k.keys {
		k.m[x&0xffff] += i
	}
	copy(k.buf, k.keys)
	slices.Sort(k.buf)
	k.sum += len(k.m) + k.buf[len(k.buf)/2]
}

// time runs the kernel once and returns its wall time. It runs while
// no request is in flight, so nothing of the benchmark's competes with
// it. (A thread's CPU time is no better clock here: Linux reports it
// for a running thread only as of the last scheduler tick.)
func (k *refKernel) time() time.Duration {
	start := time.Now()
	k.run()
	return time.Since(start)
}

// factor converts raw times to times at the reference speed, from
// kernel samples.
func factor(samples []time.Duration) float64 {
	return float64(refNominal) / (percentile(samples, 0.5) * float64(time.Millisecond))
}

// samples times the kernel n times in a row.
func (k *refKernel) samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = k.time()
	}
	return out
}

// speedTrace is the kernel samples of a window and when each was taken.
type speedTrace struct {
	at   []time.Time
	took []time.Duration
}

// factorAt is the factor for a time measured around t: from the samples
// within speedSpan of t, or from every sample when none is that close.
func (s speedTrace) factorAt(t time.Time) float64 {
	var near []time.Duration
	for i, a := range s.at {
		if d := a.Sub(t); -speedSpan <= d && d <= speedSpan {
			near = append(near, s.took[i])
		}
	}
	if len(near) == 0 {
		near = s.took
	}
	return factor(near)
}

// mean is the factor for a total over the whole window, such as its
// rate or CPU time: the mean of the factors at the samples, each of
// which stands for one sampling period.
func (s speedTrace) mean() float64 {
	sum := 0.0
	for _, a := range s.at {
		sum += s.factorAt(a)
	}
	return sum / float64(len(s.at))
}

// speedometer holds the workload's clients between requests once every
// period, times the kernel alone and reads the resident set size.
// Clients bracket every request with enter and leave.
type speedometer struct {
	gate sync.RWMutex
	stop chan struct{}
	done chan struct{}
	// Written by the sampling goroutine, read after done is closed.
	s sampled
}

// sampled is what a speedometer took over a window.
type sampled struct {
	speed   speedTrace
	rss     []float64     // resident set size at each sample, MiB
	err     error         // the first failure to read it
	held    time.Duration // wall time the clients were held
	heldCPU time.Duration // process CPU time spent meanwhile
}

func startSpeedometer(k *refKernel, period time.Duration) *speedometer {
	sp := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	s := &sp.s
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case <-tick.C:
				sp.gate.Lock()
				from := now()
				s.speed.at = append(s.speed.at, from.wall)
				s.speed.took = append(s.speed.took, k.time())
				rss, err := rssMiB()
				to := now()
				sp.gate.Unlock()
				s.rss = append(s.rss, rss)
				if s.err == nil {
					s.err = err
				}
				s.held += to.wall.Sub(from.wall)
				s.heldCPU += to.cpu - from.cpu
			}
		}
	}()
	return sp
}

func (sp *speedometer) enter() { sp.gate.RLock() }
func (sp *speedometer) leave() { sp.gate.RUnlock() }

// finish stops sampling, waits for the sampler and returns its samples.
func (sp *speedometer) finish() sampled {
	close(sp.stop)
	<-sp.done
	return sp.s
}
