package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"credist"
)

// run is one invocation: one workload, one seed, one fresh server.
type run struct {
	w      workload
	env    benchEnv
	data   dataset
	seed   uint64
	window time.Duration
	trace  bool
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Snapshot int64 `json:"snapshot"`
	Users    int   `json:"users"`
	Entries  int64 `json:"entries"`
}

func getStats(base string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// setup starts a server and returns it once /healthz answers 200 and the
// warm-up requests have all been answered 200, with the time that took
// from the exec.
func (r *run) setup() (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(r.env.bin("credist"), r.data.serveArgs(r.w), filepath.Join(r.env.build, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	if err := s.waitHealthy(2 * time.Minute); err != nil {
		s.stop()
		return nil, 0, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	for _, q := range warmupRequests(r.w.partitions > 0) {
		status, body, err := send(c, s.base, &q, false)
		if err != nil || status != http.StatusOK {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up %s: status %d, %v %s", q.Target, status, err, body)
		}
	}
	return s, time.Since(t0), nil
}

// requests generates the run's request stream from the seed. The
// select-fresh loop gets far more than a run can send and stops at the
// end of the window; the ingest loop ends with the held-out tail.
func (r *run) requests(users int) ([]Request, error) {
	rng := newRNG(r.seed, r.w.name)
	switch {
	case r.w.readRate > 0:
		return serveMixStream(rng, users, r.w.readRate, r.window), nil
	case r.w.stream == 0:
		return selectFreshStream(rng, users, 100*int(r.window.Seconds())+100), nil
	}
	f, err := os.Open(r.data.tail)
	if err != nil {
		return nil, err
	}
	tail, err := credist.ReadTuples(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return ingestStream(rng, users, tail, ingestBatchActions), nil
}

// execute runs the workload end to end and prints the report and result
// lines; it exits non-zero when a correctness check fails.
func (r *run) execute() {
	repeats := setupRepeats
	if r.trace {
		repeats = 1
	}
	var setupTimes []float64
	var srv *server
	for i := 0; i < repeats; i++ {
		s, d, err := r.setup()
		if err != nil {
			fatalf("setup: %v", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < repeats-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	st0, err := getStats(srv.base)
	if err != nil {
		fatalf("stats: %v", err)
	}
	stream, err := r.requests(st0.Users)
	if err != nil {
		fatalf("streams: %v", err)
	}

	cpu0, err := srv.cpuTime()
	if err != nil {
		fatalf("%v", err)
	}
	runtime.GC()
	start := time.Now().Add(20 * time.Millisecond)
	time.Sleep(time.Until(start))
	var outs []outcome
	if r.w.readRate == 0 {
		outs = runClosed(srv.base, stream, r.window)
	} else {
		outs = runOpen(srv.base, stream, r.w.readConns, start, true)
	}
	reqs := stream[:len(outs)]
	elapsed := time.Since(start)
	cpu1, err := srv.cpuTime()
	if err != nil {
		fatalf("%v", err)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		fatalf("%v", err)
	}
	maxQPS := -1.0
	if !r.trace && r.w.ladder != nil {
		maxQPS = r.climbLadder(srv.base, st0.Users, outs)
	}
	srv.stop()

	chk := r.check(reqs, outs, st0.Snapshot)
	t := summarize(outs)
	e2e := endToEnd(reqs, outs, t, elapsed, cpu1-cpu0, rss, median(setupTimes), maxQPS)
	samples := map[string]int{}
	ingests := 0
	for i := range outs {
		if outs[i].ok() {
			samples[reqs[i].Route]++
			if reqs[i].Route != "ingest" {
				samples["reads"]++
			} else {
				ingests++
			}
		}
	}
	// A closed loop that sent its whole stream ended its window early.
	streamEnd := 0
	if len(outs) == len(stream) && r.w.readRate == 0 {
		streamEnd = 1
	}

	rep := report{
		Workload: r.w.name, Seed: r.seed, Seconds: r.window.Seconds(), MeasuredS: elapsed.Seconds(), Preset: r.w.preset,
		Nproc: runtime.NumCPU(), GOMAXPROCS: gomaxprocsOfServer(), GoVersion: runtime.Version(),
		Commit: r.env.commit(), SourceSHA256: r.env.sourceDigest(), UCEntries: st0.Entries,
		Driver: map[string]int{
			"attempted": t.attempted, "sent": t.sent, "ok": t.ok, "refused": t.refused,
			"server_errors": t.serverErrors, "transport_errors": t.transportErrors,
			"ingests": ingests, "stream_end": streamEnd,
		},
		Checks:  chk.counts,
		Samples: samples,
		Metrics: e2e,
	}
	res := result{Correct: chk.ok() && t.serverErrors == 0 && t.transportErrors == 0,
		Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]metric{}}
	if r.trace {
		layers, err := r.replay(stream)
		if err != nil {
			fatalf("replay: %v", err)
		}
		layers["driver.late_p99_ms"] = metric{t.lateP99, "ms"}
		layers["driver.sent"] = metric{float64(t.sent), "count"}
		rep.Layers = layers
		for _, m := range perLayer {
			res.Metrics[m.name] = layers[m.name]
		}
	} else {
		for _, m := range endToEndGated {
			res.Metrics[m.name] = e2e[m.name]
		}
	}
	for _, msg := range chk.mismatches {
		logf("cdbench: CHECK FAILED: %s", msg)
	}
	logSummary(rep)
	printLine(map[string]report{"report": rep})
	printLine(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEndGated are the end-to-end metrics BENCHMARK.json lists: each is
// measured, and non-zero, on every workload. The tails stay out: over ten
// seeds on a 2-vCPU host whose speed drifts for minutes at a time, the
// spread of p99_ms and of the millisecond-scale per-route p90s on
// serve-mix reached 0.25-0.38 of their median, past the largest bound a
// gated metric may have. gain_p50_ms, spread_p50_ms and ingest_p50_ms stay out because
// select-fresh sends only /seeds, and serve-mix and select-fresh no
// /ingest.
var endToEndGated = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"select_p50_ms", "ms"},
	{"ok_per_s", "1/s"}, {"cpu_ms_per_req", "ms"}, {"peak_rss_mb", "MiB"},
}

// endToEnd computes every end-to-end figure of a run. The tails (p99_ms
// and the per-route p90s), the /gain, /spread and /ingest medians,
// max_qps and fail_ratio are reported but not gated (see endToEndGated);
// -1 marks "does not apply".
func endToEnd(reqs []Request, outs []outcome, t tally, elapsed, cpu time.Duration,
	rssMiB, setupS, maxQPS float64) map[string]metric {
	by := map[string][]float64{}
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		l := ms(outs[i].lat)
		by[reqs[i].Route] = append(by[reqs[i].Route], l)
		if reqs[i].Route != "ingest" {
			by["reads"] = append(by["reads"], l)
		}
	}
	q := func(k string, p float64) float64 { return finite(quantile(sortedCopy(by[k]), p)) }
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"p50_ms":         {q("reads", 0.5), "ms"},
		"p99_ms":         {q("reads", 0.99), "ms"},
		"gain_p50_ms":    {q("gain", 0.5), "ms"},
		"gain_p90_ms":    {q("gain", 0.9), "ms"},
		"spread_p50_ms":  {q("spread", 0.5), "ms"},
		"spread_p90_ms":  {q("spread", 0.9), "ms"},
		"select_p50_ms":  {q("seeds", 0.5), "ms"},
		"select_p90_ms":  {q("seeds", 0.9), "ms"},
		"ingest_p50_ms":  {q("ingest", 0.5), "ms"},
		"ok_per_s":       {float64(t.ok) / elapsed.Seconds(), "1/s"},
		"fail_ratio":     {float64(t.failed()) / float64(max(1, t.attempted)), "ratio"},
		"cpu_ms_per_req": {ms(cpu) / float64(max(1, t.ok)), "ms"},
		"peak_rss_mb":    {rssMiB, "MiB"},
		"max_qps":        {maxQPS, "1/s"},
	}
}

// climbLadder finds max_qps: the highest ladder rate whose one-second
// step keeps read p99 under ladderP99LimitMS with at most 1% failed and
// no growing backlog (the last quarter of a step no later than its
// first quarter by more than 10 ms). The nominal window counts as the
// first rung; 0 if even that misses the bound.
func (r *run) climbLadder(base string, users int, nominal []outcome) float64 {
	holds := func(outs []outcome) bool {
		t := summarize(outs)
		if float64(t.failed()) > 0.01*float64(t.attempted) {
			return false
		}
		var lat []float64
		for i := range outs {
			if outs[i].ok() {
				lat = append(lat, ms(outs[i].lat))
			}
		}
		sort.Float64s(lat)
		if len(lat) == 0 || quantile(lat, 0.99) > ladderP99LimitMS {
			return false
		}
		n := len(outs) / 4
		lateOf := func(part []outcome) float64 {
			var xs []float64
			for i := range part {
				if part[i].sent {
					xs = append(xs, ms(part[i].late))
				}
			}
			return finite(median(xs))
		}
		return n == 0 || lateOf(outs[len(outs)-n:]) <= lateOf(outs[:n])+10
	}
	best := 0.0
	if !holds(nominal) {
		return best
	}
	best = r.w.readRate
	rng := newRNG(r.seed+1<<32, r.w.name+"/ladder")
	for _, rate := range r.w.ladder {
		reqs := serveMixStream(rng, users, rate, ladderStep)
		if !holds(runOpen(base, reqs, r.w.readConns, time.Now().Add(10*time.Millisecond), false)) {
			break
		}
		best = rate
	}
	return best
}

// logSummary writes a human-readable digest of the report to stderr.
func logSummary(rep report) {
	logf("cdbench %s seed=%d preset=%s uc_entries=%d nproc=%d gomaxprocs=%d %s commit=%s",
		rep.Workload, rep.Seed, rep.Preset, rep.UCEntries, rep.Nproc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit)
	logf("  driver %v checks %v samples %v", rep.Driver, rep.Checks, rep.Samples)
	dump := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			logf("  %-36s %14.4f %s", k, ms[k].Value, ms[k].Unit)
		}
	}
	dump(rep.Metrics)
	dump(rep.Layers)
}
