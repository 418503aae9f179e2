package main

// Provenance of a result and the compare mode, which refuses to compare
// results taken on different hosts: wall-clock numbers are only
// comparable against a baseline from the same machine.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance identifies the host and code a result was taken with.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	Fsync      string `json:"fsync"`
}

func hostProvenance(seed uint64, workload string) provenance {
	fsync := "none (memory backend)"
	if workload == "write-mix" {
		fsync = "interval (100ms)"
	}
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Seed:       seed,
		Commit:     commit(),
		Fsync:      fsync,
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

// commit names the code under test: the git commit when the benchmark
// runs in a git checkout, otherwise a digest of the Go sources under
// the working directory (the repository root).
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// sameHost reports why two results' hosts differ, or "".
func sameHost(a, b provenance) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	case a.OS != b.OS:
		return fmt.Sprintf("OS %s vs %s", a.OS, b.OS)
	}
	return ""
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareResults prints each metric of two results side by side. It
// refuses (exit 3) results from different hosts or workloads.
func compareResults(pa, pb string, stdout, stderr io.Writer) int {
	a, err := readResult(pa)
	if err != nil {
		fmt.Fprintln(stderr, "spannerbench:", err)
		return 1
	}
	b, err := readResult(pb)
	if err != nil {
		fmt.Fprintln(stderr, "spannerbench:", err)
		return 1
	}
	if why := sameHost(a.Provenance, b.Provenance); why != "" {
		fmt.Fprintf(stderr, "spannerbench: refusing to compare results from different hosts: %s\n", why)
		return 3
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "spannerbench: refusing to compare %s (trace=%v) with %s (trace=%v)\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 3
	}
	fmt.Fprintf(stdout, "%s: %s (seed %d) vs %s (seed %d)\n", a.Workload, a.Provenance.Commit, a.Seed, b.Provenance.Commit, b.Seed)
	all := map[string]metric{}
	for _, m := range []map[string]metric{a.Metrics, a.Extra} {
		for k, v := range m {
			all[k] = v
		}
	}
	var names []string
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	get := func(r *result, k string) (metric, bool) {
		if m, ok := r.Metrics[k]; ok {
			return m, true
		}
		m, ok := r.Extra[k]
		return m, ok
	}
	for _, k := range names {
		ma, _ := get(a, k)
		mb, ok := get(b, k)
		if !ok {
			continue
		}
		change := math.NaN()
		if ma.Value != 0 {
			change = (mb.Value - ma.Value) / math.Abs(ma.Value)
		}
		fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g %+8.1f%% %s\n", k, ma.Value, mb.Value, 100*change, ma.Unit)
	}
	for k, va := range a.Counters {
		if vb, ok := b.Counters[k]; ok && va != vb {
			fmt.Fprintf(stdout, "  counter %-28s %14d %14d\n", k, va, vb)
		}
	}
	return 0
}
