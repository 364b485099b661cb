package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// selfCPU returns this process's user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// selfPeakRSSMB returns this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// procCPU returns another process's CPU seconds: the on-CPU time of
// its threads from /proc/<pid>/task/<tid>/schedstat, which counts in
// nanoseconds where /proc/<pid>/stat counts 10 ms ticks.
func procCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var ns float64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited since the glob
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", p)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %w", p, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// procPeakRSSMB returns another process's peak resident set (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	var ct cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so only the first eight add up.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		ct.total += v
		if i == 8 {
			ct.steal = v
		}
	}
	return ct
}

// stealPct is the share of all CPU time between a and b that the
// hypervisor stole.
func stealPct(a, b cpuTimes) float64 {
	if d := b.total - a.total; d > 0 {
		return 100 * (b.steal - a.steal) / d
	}
	return 0
}

// hostRecord describes the machine and the build a run measured.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	PGO        string  `json:"pgo"`
	PGOSHA256  string  `json:"pgo_sha256"`
	StealPct   float64 `json:"steal_pct"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pgoProfile is the profile both binaries must be built with: the one
// `go build ./cmd/emptcpsim` picks up by default.
const pgoProfile = "cmd/emptcpsim/default.pgo"

// checkBuild returns the host record and verifies that this binary and
// the emptcpsim binary beside it were built with root's
// cmd/emptcpsim/default.pgo.
func checkBuild(root, cliPath string) (hostRecord, error) {
	h := hostRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	want, err := filepath.Abs(filepath.Join(root, pgoProfile))
	if err != nil {
		return h, err
	}
	self, ok := debug.ReadBuildInfo()
	if !ok {
		return h, fmt.Errorf("benchmark binary carries no build info")
	}
	cli, err := buildinfo.ReadFile(cliPath)
	if err != nil {
		return h, fmt.Errorf("reading emptcpsim build info: %w", err)
	}
	for _, bi := range []*debug.BuildInfo{self, cli} {
		got := ""
		for _, s := range bi.Settings {
			if s.Key == "-pgo" {
				got = s.Value
			}
		}
		if got != want {
			return h, fmt.Errorf("%s built with PGO profile %q, want %q", bi.Path, got, want)
		}
	}
	b, err := os.ReadFile(want)
	if err != nil {
		return h, err
	}
	sum := sha256.Sum256(b)
	h.PGO, h.PGOSHA256 = pgoProfile, hex.EncodeToString(sum[:])
	return h, nil
}

// dirMB sums the sizes of a store directory's segment files.
func dirMB(dirs ...string) float64 {
	var n int64
	for _, d := range dirs {
		segs, _ := filepath.Glob(filepath.Join(d, "cache-*.seg"))
		for _, p := range segs {
			if st, err := os.Stat(p); err == nil {
				n += st.Size()
			}
		}
	}
	return float64(n) / (1 << 20)
}
