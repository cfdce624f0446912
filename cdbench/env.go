package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchEnv locates the checkout and the build directory run.sh filled.
type benchEnv struct {
	root, build string
}

func (e benchEnv) bin(name string) string { return filepath.Join(e.build, "bin", name) }

// dataset is one prepared input set: the files a server is started on.
type dataset struct {
	dir                   string
	graph, log, tail, mod string
}

// serveArgs are the `credist serve` flags for workload w on d.
func (d dataset) serveArgs(w workload) []string {
	args := []string{"-graph", d.graph, "-log", d.log, "-model", d.mod, "-warm-k", "5"}
	if w.partitions > 0 {
		args = append(args, "-partitions", strconv.Itoa(w.partitions))
	}
	if w.mmap {
		args = append(args, "-mmap")
	}
	return args
}

// prepare generates w's dataset with datagen (the preset's own seed, so
// every run of every seed serves the same model), learns and saves the
// model, and for a partitioned workload starts the server once so it
// writes its slice files. The result is kept under .bench_build and
// reused by later runs in the same checkout; only the request stream
// varies with the benchmark seed.
func (e benchEnv) prepare(w workload) (dataset, error) {
	name := w.preset
	if w.stream > 0 {
		name += fmt.Sprintf("-stream%g", w.stream)
	}
	if w.partitions > 0 {
		name += fmt.Sprintf("-p%d", w.partitions)
	}
	d := dataset{dir: filepath.Join(e.build, "data", name)}
	d.graph = filepath.Join(d.dir, w.preset+".graph")
	d.log = filepath.Join(d.dir, w.preset+".log")
	d.mod = filepath.Join(d.dir, "model.bin")
	if w.stream > 0 {
		d.tail = filepath.Join(d.dir, w.preset+".tail.log")
	}
	ready := filepath.Join(d.dir, "ready")
	if _, err := os.Stat(ready); err == nil {
		return d, nil
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return d, err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return d, err
	}
	gen := []string{"-preset", w.preset, "-out", d.dir}
	if w.stream > 0 {
		gen = append(gen, "-stream", strconv.FormatFloat(w.stream, 'g', -1, 64))
	}
	if err := e.runTool("datagen", gen...); err != nil {
		return d, err
	}
	if err := e.runTool("credist", "learn", "-graph", d.graph, "-log", d.log, "-o", d.mod); err != nil {
		return d, err
	}
	if w.partitions > 0 {
		s, err := startServer(e.bin("credist"), d.serveArgs(w), filepath.Join(d.dir, "prepare.log"))
		if err != nil {
			return d, err
		}
		err = s.waitHealthy(5 * time.Minute)
		s.stop()
		if err != nil {
			return d, fmt.Errorf("writing partition slices: %v", err)
		}
	}
	return d, os.WriteFile(ready, nil, 0o644)
}

func (e benchEnv) runTool(name string, args ...string) error {
	cmd := exec.Command(e.bin(name), args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return nil
}

// commit names the checked-out commit when the checkout is a git work
// tree, and "none" otherwise; sourceDigest identifies the source either
// way.
func (e benchEnv) commit() string {
	out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod of the checkout (paths and
// contents, in path order), skipping the build directory.
func (e benchEnv) sourceDigest() string {
	var files []string
	filepath.WalkDir(e.root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if de.IsDir() && (p == e.build || de.Name() == ".git") {
			return filepath.SkipDir
		}
		if !de.IsDir() && (strings.HasSuffix(p, ".go") || de.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(e.root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
