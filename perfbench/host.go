package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"duet"
)

// processCPU returns the process's user plus system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stealTicks returns the host's cumulative steal time over all CPUs, in
// USER_HZ ticks, from the aggregate line of /proc/stat; ok is false where
// the file or field is missing.
func stealTicks() (ticks uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[8], 10, 64)
	return v, err == nil
}

// runMeta describes the host and build a run executed on, so an unsteady run
// can be traced to its host and runs on different kernel tiers are never
// compared.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	KernelTier string  `json:"kernel_tier"`
	StealMS    float64 `json:"steal_ms"` // host steal time during the timed phase, summed over CPUs; -1 unknown
}

func newRunMeta(o options) runMeta {
	return runMeta{
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		KernelTier: duet.KernelTier(),
		StealMS:    -1,
	}
}

// stealClock measures host steal time across a phase.
type stealClock struct {
	start uint64
	ok    bool
}

func startSteal() stealClock {
	t, ok := stealTicks()
	return stealClock{start: t, ok: ok}
}

// ms returns the steal accumulated since start in milliseconds (USER_HZ is
// 100 on Linux), or -1 when /proc/stat is unreadable.
func (s stealClock) ms() float64 {
	end, ok := stealTicks()
	if !s.ok || !ok {
		return -1
	}
	return float64(end-s.start) * 10
}
