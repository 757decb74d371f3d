package main

import (
	"bufio"
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB: VmHWM
// from /proc, or getrusage's maxrss where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadAvg returns the 1-minute load average, or -1 where unavailable.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment describes the machine a result was measured on, so
// contention from other processes shows next to the numbers.
func environment() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// goLines counts non-test Go lines per package directory under root,
// skipping hidden directories, testdata and nested modules (this
// benchmark among them).
func goLines(root string) (map[string]int, int) {
	per := make(map[string]int)
	total := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := bytes.Count(b, []byte("\n"))
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		per[filepath.ToSlash(dir)] += n
		total += n
		return nil
	})
	return per, total
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailPercentile is the highest percentile from a fixed ladder that
// leaves at least ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99.5, 99, 98, 95, 90, 80, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// waitTime returns how long this process's threads have been ready to
// run without a CPU so far: the hypervisor's steal from the machine (a
// stolen CPU is one that wanted to run) plus each thread's run-queue
// delay. Neither is the program's own doing, so timings are scaled by
// the share of the CPU time the process asked for that it got.
func waitTime() time.Duration {
	steal, _ := stealTicks()
	w := time.Duration(steal) * time.Second / clockTicks
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if ns, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				w += time.Duration(ns)
			}
		}
	}
	return w
}

// clockTicks is USER_HZ, the unit of /proc/stat: 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// stealTicks returns the machine's CPU time stolen by the hypervisor
// and its total CPU time, in clock ticks, from /proc/stat (0, 0 where
// unavailable).
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest time is already counted in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
