//go:build !linux

package main

// Without /proc the memory and fault metrics read 0; the timing
// metrics are unaffected.

func procRSSMiB(pid, field string) float64 { return 0 }

func currentRSSMiB() float64 { return 0 }

func offHeap(n int) []byte { return make([]byte, n) }

func minorFaults() int64 { return 0 }

func kernelAndTHP() (kernel, thp string) { return "", "" }
