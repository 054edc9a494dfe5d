package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// summary is a metric's sample distribution: the median and quartiles by the
// exclusive method (Python's statistics.quantiles default), so the numbers
// here match a spread computed from the printed values.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: n}
}

// quantile interpolates the sorted sample at position p*(n+1), clamped to
// the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	m := p * float64(n+1)
	j := int(math.Floor(m))
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	delta := m - float64(j)
	return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tail returns the highest order statistic that still has at least ten
// samples above it, and the percentile it sits at. With ten or fewer
// samples no such value exists and ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // index with exactly ten samples above it
	return s[k], 100 * float64(k+1) / float64(n), true
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// host identifies the machine a report was measured on. Reports from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
	DataDirFS  string `json:"data_dir_fs"`
}

func stampHost(dataDir string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		DataDirFS:  fsType(dataDir),
	}
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

// fsType names the filesystem holding dir: its statfs magic number, named
// for the filesystems seen on the recorded hosts.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
