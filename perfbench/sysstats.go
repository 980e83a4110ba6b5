package main

import (
	"bufio"
	"os"
	stdruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set [MiB].
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSnap is the part of runtime.MemStats the benchmark reports.
type memSnap struct {
	mallocs, bytes uint64
	numGC          uint32
	pauses         []uint64 // last GC pauses, newest last
}

func readMem() memSnap {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	s := memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC}
	n := int(ms.NumGC)
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	for i := n; i >= 1; i-- {
		s.pauses = append(s.pauses, ms.PauseNs[(int(ms.NumGC)-i+len(ms.PauseNs))%len(ms.PauseNs)])
	}
	return s
}

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	Mallocs    uint64
	Bytes      uint64
	GCs        uint32
	PauseP99Ms float64 // p99 of the window's GC pauses (the last 256 at most)
}

func (later memSnap) sub(earlier memSnap) memDelta {
	d := memDelta{
		Mallocs: later.mallocs - earlier.mallocs,
		Bytes:   later.bytes - earlier.bytes,
		GCs:     later.numGC - earlier.numGC,
	}
	k := int(d.GCs)
	if k > len(later.pauses) {
		k = len(later.pauses)
	}
	if k > 0 {
		ps := make([]float64, k)
		for i, p := range later.pauses[len(later.pauses)-k:] {
			ps[i] = float64(p) / 1e6
		}
		sort.Float64s(ps)
		d.PauseP99Ms = percentile(ps, 99)
	}
	return d
}

// liveHeapMB forces a collection and returns the live heap [MiB].
func liveHeapMB() float64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// host identifies the machine and build a result was measured on. Results
// from two hosts are never compared as pass or fail.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"git_revision"`
}

func currentHost() host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      stdruntime.NumCPU(),
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		GoVersion:  stdruntime.Version(),
		GOOS:       stdruntime.GOOS,
		GOARCH:     stdruntime.GOARCH,
		Revision:   os.Getenv("PFMBENCH_REV"),
	}
	if h.Revision == "" || h.Revision == "unknown" {
		h.Revision = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					h.Revision = s.Value
				}
			}
		}
	}
	return h
}

// sameMachine reports whether two results were measured on comparable
// hosts: the same CPU model, CPU count, GOMAXPROCS, Go version and
// platform. The revision may differ — that is what a comparison is for.
func (h host) sameMachine(o host) bool {
	return h.CPUModel == o.CPUModel && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.GOOS == o.GOOS && h.GOARCH == o.GOARCH
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
