package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp is recorded with every result: the machine, the toolchain, the code
// and every setting that shapes the numbers.
type stamp struct {
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	SourceHash string   `json:"source_sha256"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      int      `json:"trace"`
	DaemonArgs []string `json:"daemon_flags"`
	Clients    int      `json:"clients"`
	Path       string   `json:"request_path"`
	Nodes      int64    `json:"nodes"`
	Timeout    string   `json:"timeout"`
	Batch      int      `json:"query_batch,omitempty"`
}

func newStamp(wl *workload, seed int64, trace int) *stamp {
	s := &stamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		Workload:   wl.name,
		Seed:       seed,
		Trace:      trace,
		DaemonArgs: daemonFlags,
		Clients:    wl.clients,
		Path:       wl.path,
		Nodes:      wl.nodes,
		Timeout:    requestTimeout.String(),
	}
	if !wl.decomp {
		s.Batch = queryBatch
	}
	return s
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

// commit is the checkout's git commit, or "unknown" when the working
// directory is not the root of a git work tree (the source hash identifies
// the code either way).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the program's Go sources and module file under root,
// leaving out the benchmark's own directories and build output.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not count
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
