package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM), so the
// peak read afterwards belongs to one unit of the workload, not to the
// process's earlier life. Where the kernel refuses, the peak covers the
// process's whole life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// conditions are the run conditions printed with every result.
type conditions struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	HeldOut    uint64   `json:"held_out_seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source_sha256"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	// JournalFS is where daemon-jobs journals: an in-memory filesystem
	// behind service.Options.FS (see memFS).
	JournalFS string `json:"journal_fs"`
	// ScratchFS is the filesystem of the run's scratch directory, which
	// holds the hplurality-sweep output file.
	ScratchFS string `json:"scratch_fs"`
}

func readConditions(root string) conditions {
	c := conditions{
		Commit:     "unknown",
		Source:     sourceDigest(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		JournalFS:  "memory",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if ok && strings.TrimSpace(k) == "model name" {
				c.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range idx {
		level, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		size, _ := os.ReadFile(filepath.Join(d, "size"))
		c.Caches = append(c.Caches, "L"+strings.TrimSpace(string(level))+" "+
			strings.TrimSpace(string(typ))+" "+strings.TrimSpace(string(size)))
	}
	return c
}

// sourceDigest hashes the module's Go sources and go.mod outside the
// benchmark's own directory, identifying the code under test when the
// checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir.
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
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// flipByte returns a copy of b with one byte inside a JSON value changed:
// the negative control the output checks must catch.
func flipByte(b []byte) []byte {
	out := bytes.Clone(b)
	if i := bytes.Index(out, []byte(`"rounds":`)); i >= 0 {
		out[i+len(`"rounds":`)] ^= 0x01
	}
	return out
}
