package main

import (
	"container/heap"
	"math/rand/v2"
	"time"
)

// Host-speed calibration for the CPU-bound timings: the simulator's
// passes and set-ups, and the serving workloads' release latency.
//
// On a shared two-vCPU host the simulator's pass time drifts by 20-50%
// over tens of seconds as neighbouring load comes and goes, with CPU
// time tracking wall time (the process is slowed, not descheduled).
// No amount of in-run repetition removes a drift slower than the run.
// So sim-tables runs a fixed reference workload, a small closed-loop
// queueing simulation that shares the simulator's profile (a binary
// event heap, exponential draws, float arithmetic) but none of its
// code, right before and after every timed part, and reports each
// part's time divided by the adjacent reference times and multiplied
// by refNominal: host time at the speed the bounds were set at. The
// uncalibrated times are printed beside them.

// refEvents is the size of one reference burst.
const refEvents = 50_000

// refNominal is one reference burst's median time on the host the
// bounds were set on (2-vCPU Xeon @ 2.7GHz, go1.24, GOMAXPROCS=1).
const refNominal = 8 * time.Millisecond

// refEvent is one pending arrival of the reference queue.
type refEvent struct {
	t  float64
	id int
}

// refHeap orders arrivals by time through container/heap, so the
// reference pays the interface calls and small allocations an event
// loop of the simulator's kind pays; a hand-inlined, allocation-free
// heap tracked the simulator's slowdowns far worse.
type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refSink keeps the reference's result live.
var refSink float64

// reference runs one burst: 16 closed-loop clients with exponential
// think times sharing one unit-time server, refEvents services.
func reference() time.Duration {
	start := time.Now()
	r := rand.New(rand.NewPCG(1988, 16))
	h := &refHeap{}
	for i := 0; i < 16; i++ {
		heap.Push(h, refEvent{r.ExpFloat64(), i})
	}
	var free, wait float64
	for k := 0; k < refEvents; k++ {
		e := heap.Pop(h).(refEvent)
		begin := max(e.t, free)
		free = begin + 1
		wait += free - e.t
		heap.Push(h, refEvent{free + r.ExpFloat64()*10, e.id})
	}
	refSink += wait
	return time.Since(start)
}

// hostScale is the factor that turns a time measured between the
// reference bursts refs into host time at nominal speed.
func hostScale(refs ...time.Duration) float64 {
	var sum time.Duration
	for _, r := range refs {
		sum += r
	}
	mean := float64(sum) / float64(len(refs))
	return float64(refNominal) / mean
}

// calibrated scales a measured time by the reference times around it.
func calibrated(took time.Duration, refs ...time.Duration) time.Duration {
	return time.Duration(float64(took) * hostScale(refs...))
}
