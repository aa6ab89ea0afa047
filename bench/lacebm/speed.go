package main

// speed.go scales measured times to a reference machine speed.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// ±20% over minutes with the load of other tenants; that drift, not the
// program, dominated the spread between runs. So before and after each
// instance (read and write workloads) or segment (resolve-batch), with
// nothing else of the benchmark running, the parent times refKernel, a
// fixed computation that belongs to the benchmark, not to LACE, so no
// change to the program can move it. Its median time over refReps
// repetitions, divided by refNominal, is the slowdown factor of that
// moment; an instance's times are divided by the mean of the factors
// before and after it (rates multiplied). An end-to-end time therefore
// reads as the time the operation would take with the machine running
// at the speed refNominal was taken at; the records file keeps every
// raw value next to its scaled one.
//
// refKernel allocates, hashes and formats, like the program: on this
// machine an allocation-heavy kernel tracked LACE's slowdowns closely,
// a pure arithmetic one (SHA-256) did not.

import (
	"strconv"
	"time"
)

const (
	// refNominal is refKernel's typical time between instances on the
	// machine the bounds in BENCHMARK.json were measured on (a 2-vCPU
	// Intel Xeon VM), so scaled times there read close to raw ones.
	refNominal = 28 * time.Millisecond
	refReps    = 7
)

var refSink int

func refKernel() time.Duration {
	start := time.Now()
	m := make(map[string]int)
	for i := 0; i < 100000; i++ {
		m[strconv.Itoa(i*7919)] = i
	}
	n := 0
	for i := 0; i < 100000; i++ {
		n += m[strconv.Itoa(i*7919)]
	}
	refSink += n
	return time.Since(start)
}

// slowdown times refKernel refReps times and returns the median over
// refNominal: 1 at reference speed, above 1 while the machine is slower.
func slowdown() float64 {
	ts := make([]float64, refReps)
	for i := range ts {
		ts[i] = float64(refKernel())
	}
	return median(ts) / float64(refNominal)
}

// slowdowns measures the slowdown between the instances of a run:
// next() returns the mean of the factor measured at the end of the
// previous instance (or the start of the run) and a fresh one, and the
// fresh one serves as the next instance's starting factor.
func slowdowns() func() float64 {
	prev := slowdown()
	return func() float64 {
		cur := slowdown()
		mean := (prev + cur) / 2
		prev = cur
		return mean
	}
}
