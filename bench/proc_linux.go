package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// procRSSMiB reads one resident-set field of /proc/<pid>/status, in
// MiB: "VmRSS" (current) or "VmHWM" (high-water mark). pid "self" is
// this process.
func procRSSMiB(pid, field string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// currentRSSMiB is this process's resident set right now.
func currentRSSMiB() float64 { return procRSSMiB("self", "VmRSS") }

// offHeap returns n zeroed bytes mapped outside the Go heap: the
// collector neither scans them nor counts them towards its goal. They
// live as long as the process. If the mapping is refused the bytes
// come from the heap: the yardstick still works, the collector just
// sees them.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// minorFaults returns this process's cumulative minor page faults.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// kernelAndTHP fingerprints the host kernel and its transparent
// huge-page mode (the arena madvises for huge pages).
func kernelAndTHP() (kernel, thp string) {
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err == nil {
		thp = strings.TrimSpace(string(b))
	}
	return kernel, thp
}
