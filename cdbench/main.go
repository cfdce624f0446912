// Command cdbench is the repository benchmark: it builds nothing itself
// (run.sh builds credist, datagen and this program from the checkout),
// prepares its datasets under .bench_build, starts a fresh `credist
// serve` for every run, drives one workload over loopback, checks the
// answers against in-process calls on the same model, and prints one JSON
// result line. With -trace 1 it also replays the same request stream
// in-process and reports per-layer spans instead of end-to-end metrics.
//
//	bash cdbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload fixes everything about a run except the seed and length.
type workload struct {
	name   string
	preset string
	// stream holds this fraction of the actions out of the served log; the
	// run ingests them (datagen -stream).
	stream     float64
	partitions int
	mmap       bool
	// readRate is the open-loop rate (req/s) over readConns connections;
	// 0 means a closed loop with one client.
	readRate  float64
	readConns int
	// ladder lists the rates tried for max_qps after the window (nil: no
	// ladder).
	ladder []float64
	// replay is how many requests of the stream, after the warm-up, the
	// in-process replay of --trace 1 runs: 40 mix blocks of serve-mix, one
	// block of select-fresh kinds, five ingest episodes.
	replay int
}

var workloads = []workload{
	{name: "serve-mix", preset: "flixster-small", readRate: 200, readConns: 2,
		ladder: []float64{400, 700, 1000, 1300}, replay: 40 * 13},
	{name: "select-fresh", preset: "flixster-large", replay: len(selectKinds)},
	{name: "ingest-partitioned", preset: "flixster-small", stream: 0.3, partitions: 2, mmap: true,
		replay: 5 * ingestEpisodeLen},
}

const (
	ingestBatchActions = 10
	// ingestEpisodeLen is the request count of one ingest episode.
	ingestEpisodeLen = 2 + 11*ingestReadBlocks
	// ladderP99LimitMS is the p99 bound a ladder step must hold to count
	// toward max_qps.
	ladderP99LimitMS = 50
	ladderStep       = time.Second
	setupRepeats     = 5
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fatalf(format string, args ...any) {
	stopAll()
	fmt.Fprintf(os.Stderr, "cdbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve-mix, select-fresh or ingest-partitioned")
		seed    = flag.Uint64("seed", 1, "workload seed: the request stream and its parameters derive from it")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 replays the stream in-process and reports per-layer metrics")
		root    = flag.String("root", ".", "checkout root (holds go.mod and .bench_build)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: cdbench --workload serve-mix|select-fresh|ingest-partitioned --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	env := benchEnv{root: absRoot, build: filepath.Join(absRoot, ".bench_build")}
	d, err := env.prepare(w)
	if err != nil {
		fatalf("prepare %s: %v", w.name, err)
	}
	r := &run{w: w, env: env, data: d, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r.execute()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: the run's stamps and
// every figure it took, including the ones BENCHMARK.json does not gate.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// MeasuredS is how long the window really ran: a closed loop that
	// sends its whole stream (stream_end 1 in Driver) ends it early.
	MeasuredS    float64        `json:"measured_s"`
	Preset       string         `json:"preset"`
	Nproc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	UCEntries    int64          `json:"uc_entries"`
	Driver       map[string]int `json:"driver"`
	Checks       map[string]int `json:"checks"`
	// Samples counts the answers each latency percentile was taken over,
	// by route, and "reads" for p50_ms/p99_ms.
	Samples map[string]int    `json:"samples"`
	Metrics map[string]metric `json:"metrics"`
	Layers  map[string]metric `json:"layers,omitempty"`
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode: %v", err)
	}
	os.Stdout.Write(append(b, '\n'))
}

// finite replaces a NaN or infinity (an empty quantile) with -1 so the
// line stays valid JSON; a gated metric never takes this path on a
// healthy run, and a -1 there reads as the failure it is.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func gomaxprocsOfServer() int {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		var n int
		if _, err := fmt.Sscan(v, &n); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}
