package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is attached to every record: a number without the machine it
// came from cannot be compared with anything (BENCH_sim.json's "container
// limited to 1 core" invalidated a whole acceptance target).
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	// TempFS is the filesystem under the disk tiers' directory.
	TempFS string `json:"tempFs"`
	// DiskNote is why disk latencies here are not a device's.
	DiskNote string `json:"diskNote"`
	Network  string `json:"network"`
}

func readEnvironment() environment {
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		TempFS:     filesystemOf("."),
		DiskNote:   "disk-tier reads are served from the OS page cache and writes are not fsynced: sandbox numbers, not a device's",
		Network:    "host loopback",
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type holding dir: the type of the
// longest mount point in /proc/mounts that is a prefix of dir's path.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mount := fields[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, fields[2]
		}
	}
	return fs
}
