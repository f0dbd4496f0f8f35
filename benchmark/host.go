package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp says where and on what a result was measured; every result file
// carries one.
type hostStamp struct {
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	PhysicalCPUs int    `json:"physical_cpus"` // 0 when /proc/cpuinfo does not say
	CPUModel     string `json:"cpu_model"`
}

func stampHost() hostStamp {
	h := hostStamp{Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	cores := map[string]bool{}
	var physical string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "model name":
			h.CPUModel = val
		case "physical id":
			physical = val
		case "core id":
			cores[physical+"/"+val] = true
		}
	}
	h.PhysicalCPUs = len(cores)
	return h
}

// cpuTicks reads the aggregate steal and total CPU ticks from /proc/stat (0, 0
// where there is none). On a shared host the hypervisor's steal share during a
// run says how far its wall-clock metrics can be trusted.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already part of user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
