package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostLine records the host and settings a result was taken under. The
// benchmark runs from the repository root; the commit is read from .git
// when the checkout has one, and the source digest (every .go file and
// go.mod under the root) identifies the code either way.
func hostLine(cfg Config, clients int) string {
	info := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"seed":          cfg.Seed,
		"clients":       clients,
		"tenants":       cfg.Size.Tenants,
		"sessions":      cfg.Size.SessionsPerTenant,
		"network":       "loopback only (127.0.0.1); clients and server share one process",
	}
	b, _ := json.Marshal(info) // a map of strings and numbers always marshals
	return string(b)
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

func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
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
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSS reads the process's peak resident set size from
// /proc/self/status.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
