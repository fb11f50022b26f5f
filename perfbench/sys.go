package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// resetPeakRSS resets the kernel's resident-set high-water mark of
// process pid (0 = this process) to its current RSS, so the peak read at
// the end of a run covers the timed phase only, not set-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSKB reads VmHWM, the resident-set high-water mark, of process
// pid (0 = this process) in KiB.
func peakRSSKB(pid int) (int64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// cpuTimes reads the host-wide CPU time the hypervisor stole from this
// machine and the total, in clock ticks, from /proc/stat.
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memWindow holds the runtime counters the per-layer run diffs over the
// timed phase.
type memWindow struct {
	totalAlloc uint64
	numGC      uint32
}

func readMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// liveHeapMB forces two collections and returns the heap still in use:
// what the workload's reachable state pins.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
