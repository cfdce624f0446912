package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"credist"
	"credist/internal/serve"
)

// spanKinds are the layer calls the traced replay wraps in spans. Each
// becomes a <kind>_ns metric (for serve.handler.<route> and
// serve.snapshot.<route>: serve.handler_ns.<route>) plus .allocs and
// .bytes per op.
var spanKinds = []string{
	"core.load", "core.spread", "core.clone", "core.commit", "core.gain", "core.explain", "core.ingest",
	"celf.select", "ris.approx", "partition.spread", "partition.gains", "actionlog.parse",
	"serve.handler.spread", "serve.handler.gain", "serve.handler.seeds", "serve.handler.explain", "serve.handler.ingest",
	"serve.snapshot.spread", "serve.snapshot.gain", "serve.snapshot.seeds", "serve.snapshot.explain", "serve.snapshot.ingest",
}

func nsName(kind string) string {
	if p := strings.Split(kind, "."); len(p) == 3 {
		return p[0] + "." + p[1] + "_ns." + p[2]
	}
	return kind + "_ns"
}

// perLayer are the per-layer metrics BENCHMARK.json lists, in its order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, k := range spanKinds {
		n := nsName(k)
		out = append(out, metricDef{n, "ns"}, metricDef{n + ".allocs", "count"}, metricDef{n + ".bytes", "B"})
	}
	return append(out,
		metricDef{"core.commit_heap_bytes", "B"},
		metricDef{"core.delta_entries", "count"},
		metricDef{"celf.lookups", "count"},
		metricDef{"celf.lookups_per_seed", "count"},
		metricDef{"ris.samples", "count"},
		metricDef{"ris.grown", "count"},
		metricDef{"partition.spread_tax", "ratio"},
		metricDef{"serve.selections", "count"},
		metricDef{"go.alloc_bytes_per_req", "B"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"driver.late_p99_ms", "ms"},
		metricDef{"driver.sent", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// span is one timed call into a layer: name, request id, start and end
// (since the replay began), and the heap objects and bytes allocated in
// between (runtime/metrics at both boundaries). Each layer runs on its
// own instance, one after another, so no span encloses another: the
// spans of one request are siblings linked by its id. Parent spans, and
// with them self time, need spans inside the program, which is not
// instrumented.
type span struct {
	kind          string
	req           int
	start, end    time.Duration
	allocs, bytes uint64
}

type tracer struct {
	t0    time.Time
	spans []span
	rm    [2]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	t.rm[0].Name = "/gc/heap/allocs:objects"
	t.rm[1].Name = "/gc/heap/allocs:bytes"
	return t
}

func (t *tracer) begin(kind string, req int) int {
	metrics.Read(t.rm[:])
	t.spans = append(t.spans, span{kind: kind, req: req,
		allocs: t.rm[0].Value.Uint64(), bytes: t.rm[1].Value.Uint64(), start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	e := time.Since(t.t0)
	metrics.Read(t.rm[:])
	s := &t.spans[i]
	s.end = e
	s.allocs = t.rm[0].Value.Uint64() - s.allocs
	s.bytes = t.rm[1].Value.Uint64() - s.bytes
	return s.end - s.start
}

// write saves the spans as JSON lines, one per span, in recording order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"req":%d,"start_ns":%d,"end_ns":%d,"allocs":%d,"bytes":%d}`+"\n",
			s.kind, s.req, s.start.Nanoseconds(), s.end.Nanoseconds(), s.allocs, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSet is the in-process stack one replay drives. The handler, the
// snapshot layer and the core layer are separate instances loaded from
// the same files, each fed every request once, so each span times exactly
// the work its layer did for that request — first-use builds included —
// and never a cache another layer warmed.
type layerSet struct {
	h    http.Handler
	sn   *serve.Snapshot
	ref  *credist.Model
	refP *credist.Planner
	pp   *credist.PartitionedPlanner
	// partLeft is how many more spread/gain requests the partition layer
	// is timed on.
	partLeft int
}

// partitionSpans caps the requests timed through the partition layer.
const partitionSpans = 24

// layerStats accumulates the per-layer figures that are not spans.
type layerStats struct {
	commitHeap, commits           int64
	deltaEntries                  int64
	selections, lookups, selSeeds int64
	approx, samples, grown        int64
	partTime, coreTime            time.Duration
}

func (r *run) source(ds *credist.Dataset) serve.Source {
	return serve.Source{Dataset: ds, ModelPath: r.data.mod, Partitions: r.w.partitions, Mmap: r.w.mmap}
}

// handler builds a fresh in-process server for the workload.
func (r *run) handler(ds *credist.Dataset) (http.Handler, error) {
	sn, err := serve.Build(r.source(ds))
	if err != nil {
		return nil, err
	}
	if err := sn.PartitionErr(); err != nil {
		return nil, err
	}
	return serve.New(sn).Handler(), nil
}

// serveOne answers q in-process and returns the response body.
func serveOne(h http.Handler, q *Request) ([]byte, error) {
	var body *bytes.Reader
	if q.Body != nil {
		body = bytes.NewReader(q.Body)
	}
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(q.Method, q.Target, body)
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(q.Method, q.Target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", q.Method, q.Target, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body.Bytes(), nil
}

// probeIngest re-emits the log's last ten actions under fresh action ids:
// the single-engine workloads have no tail of their own, and this gives
// their traced replay one ingest to time the ingest path on.
func probeIngest(ds *credist.Dataset) Request {
	n := ds.Log.NumActions()
	var tuples []credist.Tuple
	for j := 0; j < ingestBatchActions; j++ {
		for _, t := range ds.Log.Action(credist.ActionID(n - ingestBatchActions + j)) {
			t.Action = credist.ActionID(n + j)
			tuples = append(tuples, t)
		}
	}
	return ingestReq(tuples)
}

type gcReading struct {
	cycles, allocBytes uint64
	pause              float64 // seconds
}

func readGC() gcReading {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	g := gcReading{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		g.pause += float64(c) * mid
	}
	return g
}

// replay times the first r.w.replay requests of the run's stream
// in-process on one goroutine, after the warm-up: first untraced (handler
// calls only, for the runtime figures, the selection count and the
// overhead baseline), then traced over the same requests. The count is
// fixed, not a share of the window, so totals over the replay do not
// grow when the program gets faster. The single-engine workloads append
// one probe ingest.
func (r *run) replay(stream []Request) (map[string]metric, error) {
	ds, err := credist.LoadDataset("custom", r.data.graph, r.data.log)
	if err != nil {
		return nil, err
	}
	warm := warmupRequests(r.w.partitions > 0)
	stream = stream[:min(len(stream), r.w.replay)]
	var probe []Request
	if r.w.stream == 0 {
		probe = []Request{probeIngest(ds)}
	}

	// Untraced.
	h, err := r.handler(ds)
	if err != nil {
		return nil, err
	}
	list := append(append(append([]Request(nil), warm...), stream...), probe...)
	runtime.GC()
	g0 := readGC()
	var plain time.Duration
	var seedAnswers [][]byte
	for i := range list {
		t := time.Now()
		body, err := serveOne(h, &list[i])
		plain += time.Since(t)
		if err != nil {
			return nil, err
		}
		if list[i].Route == "seeds" {
			seedAnswers = append(seedAnswers, body)
		}
	}
	g1 := readGC()
	selections := 0
	for _, body := range seedAnswers {
		var rp reply
		if err := json.Unmarshal(body, &rp); err != nil {
			return nil, err
		}
		if rp.Cached != nil && !*rp.Cached {
			selections++
		}
	}
	h = nil
	runtime.GC()

	// Traced.
	tr := newTracer()
	var st layerStats
	l := &layerSet{partLeft: partitionSpans}
	if l.h, err = r.handler(ds); err != nil {
		return nil, err
	}
	if l.sn, err = serve.Build(r.source(ds)); err != nil {
		return nil, err
	}
	load := tr.begin("core.load", -1)
	if r.w.partitions > 0 {
		_, l.pp, err = credist.LoadPartitions(ds, credist.SlicePaths(r.data.mod, r.w.partitions), r.w.mmap, credist.Options{})
	} else {
		l.ref, err = credist.LoadModel(ds, r.data.mod, credist.Options{})
	}
	tr.end(load)
	if err != nil {
		return nil, err
	}
	if r.w.partitions > 0 {
		// The core-layer reference for the partitioned workload is the
		// same model unpartitioned on the heap.
		if l.ref, err = credist.LoadModel(ds, r.data.mod, credist.Options{}); err != nil {
			return nil, err
		}
	}
	l.refP = l.ref.NewPlanner()
	if l.pp == nil {
		if l.pp, err = l.ref.NewPlanner().Partition(max(2, r.w.partitions)); err != nil {
			return nil, err
		}
	}
	var traced time.Duration
	for i := range list {
		d, err := l.traced(tr, &st, i, &list[i])
		if err != nil {
			return nil, err
		}
		traced += d
		if i == len(warm)-1 && r.w.partitions > 0 {
			// The partitioned tier cannot sample RR sets live, so its
			// warm-up sends no eps= query; time the RR layer on the
			// unpartitioned reference instead.
			s := tr.begin("ris.approx", i)
			_, res, err := l.ref.ApproxSeeds(5, credist.ApproxOptions{Eps: 0.1})
			tr.end(s)
			if err != nil {
				return nil, err
			}
			st.approx++
			st.samples += int64(res.Samples)
			st.grown += int64(res.Grown)
		}
	}

	if err := tr.write(filepath.Join(r.env.build, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))); err != nil {
		return nil, err
	}
	out := tr.aggregate()
	perOp := func(num, den int64) float64 {
		if den == 0 {
			return -1
		}
		return float64(num) / float64(den)
	}
	replayed := int64(len(list))
	out["core.commit_heap_bytes"] = metric{perOp(st.commitHeap, st.commits), "B"}
	out["core.delta_entries"] = metric{float64(st.deltaEntries), "count"}
	out["celf.lookups"] = metric{perOp(st.lookups, st.selections), "count"}
	out["celf.lookups_per_seed"] = metric{perOp(st.lookups, st.selSeeds), "count"}
	out["ris.samples"] = metric{perOp(st.samples, st.approx), "count"}
	out["ris.grown"] = metric{float64(st.grown), "count"}
	out["partition.spread_tax"] = metric{finite(float64(st.partTime) / float64(st.coreTime)), "ratio"}
	out["go.alloc_bytes_per_req"] = metric{perOp(int64(g1.allocBytes-g0.allocBytes), replayed), "B"}
	out["go.gc_cycles"] = metric{float64(g1.cycles - g0.cycles), "count"}
	out["go.gc_pause_ms"] = metric{(g1.pause - g0.pause) * 1e3, "ms"}
	out["serve.selections"] = metric{float64(selections), "count"}
	out["trace.overhead_ratio"] = metric{float64(traced) / float64(plain), "ratio"}
	out["replay.requests"] = metric{float64(replayed), "count"}
	return out, nil
}

// traced runs one request through the handler, then the snapshot layer,
// then the core layer, each on its own instance, and returns the handler
// span's length.
func (l *layerSet) traced(tr *tracer, st *layerStats, id int, q *Request) (time.Duration, error) {
	hs := tr.begin("serve.handler."+q.Route, id)
	_, err := serveOne(l.h, q)
	d := tr.end(hs)
	if err != nil {
		return 0, err
	}
	freshCELF := q.Route == "seeds" && q.Eps == 0 && q.Obj == nil && l.sn.SeedPrefixLen() < q.K
	ss := tr.begin("serve.snapshot."+q.Route, id)
	var next *serve.Snapshot
	switch q.Route {
	case "spread":
		_, err = l.sn.Spread(q.Seeds)
	case "gain":
		_, err = l.sn.Gains(q.Seeds, q.Cands)
	case "seeds":
		switch {
		case q.Eps > 0:
			_, _, err = l.sn.ApproxSeeds(q.K, credist.ApproxOptions{Eps: q.Eps})
		case q.Obj != nil:
			_, err = l.sn.SelectSeedsObj(q.K, q.Obj)
		default:
			_, _, err = l.sn.SelectSeeds(q.K)
		}
	case "explain":
		_, err = l.sn.ExplainSeed(q.Seeds[0], q.Top)
	case "ingest":
		next, err = l.sn.Ingest(q.Tuples, false)
	}
	tr.end(ss)
	if err != nil {
		return 0, err
	}
	if next != nil {
		l.sn = next
	}
	return d, l.core(tr, st, id, q, freshCELF)
}

// core times the facade calls over internal/core, celf, ris, partition
// and actionlog that the request's snapshot operation stands on.
func (l *layerSet) core(tr *tracer, st *layerStats, id int, q *Request, freshCELF bool) error {
	var err error
	switch q.Route {
	case "spread":
		s := tr.begin("core.spread", id)
		l.ref.Spread(q.Seeds)
		cd := tr.end(s)
		if l.partLeft > 0 {
			l.partLeft--
			s := tr.begin("partition.spread", id)
			_, err = l.pp.Spread(q.Seeds)
			st.partTime += tr.end(s)
			st.coreTime += cd
		}
	case "gain":
		s := tr.begin("core.clone", id)
		p := l.refP.Clone()
		tr.end(s)
		for _, b := range q.Seeds {
			h0 := p.HeapBytes()
			s := tr.begin("core.commit", id)
			p.Add(b)
			tr.end(s)
			st.commitHeap += p.HeapBytes() - h0
			st.commits++
		}
		for _, c := range q.Cands {
			s := tr.begin("core.gain", id)
			p.Gain(c)
			tr.end(s)
		}
		if l.partLeft > 0 {
			l.partLeft--
			s := tr.begin("partition.gains", id)
			_, err = l.pp.Gains(q.Seeds, q.Cands)
			tr.end(s)
		}
	case "seeds":
		switch {
		case q.Eps > 0:
			s := tr.begin("ris.approx", id)
			var res credist.ApproxResult
			_, res, err = l.ref.ApproxSeeds(q.K, credist.ApproxOptions{Eps: q.Eps})
			tr.end(s)
			st.approx++
			st.samples += int64(res.Samples)
			st.grown += int64(res.Grown)
		case q.Obj != nil:
			s := tr.begin("celf.select", id)
			res, e := l.ref.SelectSeedsObj(q.K, q.Obj)
			tr.end(s)
			err = e
			st.selections++
			st.lookups += int64(res.Lookups)
			st.selSeeds += int64(len(res.Seeds))
		case freshCELF:
			p := l.refP.Clone()
			s := tr.begin("celf.select", id)
			res := p.Select(q.K)
			tr.end(s)
			st.selections++
			st.lookups += int64(res.Lookups)
			st.selSeeds += int64(len(res.Seeds))
		}
	case "explain":
		s := tr.begin("core.explain", id)
		l.ref.ExplainSeed(q.Seeds[0], q.Top)
		tr.end(s)
	case "ingest":
		var text bytes.Buffer
		for _, t := range q.Tuples {
			fmt.Fprintf(&text, "%d %d %s\n", t.User, t.Action, strconv.FormatFloat(t.Time, 'g', -1, 64))
		}
		s := tr.begin("actionlog.parse", id)
		_, err = credist.ReadTuples(&text)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("core.ingest", id)
		next, err := l.ref.Ingest(q.Tuples)
		tr.end(s)
		if err != nil {
			return err
		}
		if l.refP, err = next.ExtendPlanner(l.refP); err != nil {
			return err
		}
		l.refP.Freeze()
		st.deltaEntries = l.refP.DeltaEntries()
		if l.pp, err = l.pp.Extend(next); err != nil {
			return err
		}
		l.ref = next
	}
	return err
}

// aggregate folds the spans into per-op figures: the median span length
// and the mean objects and bytes allocated per call of each kind.
func (t *tracer) aggregate() map[string]metric {
	type acc struct {
		ns            []float64
		allocs, bytes uint64
	}
	by := map[string]*acc{}
	for _, s := range t.spans {
		a := by[s.kind]
		if a == nil {
			a = &acc{}
			by[s.kind] = a
		}
		a.ns = append(a.ns, float64(s.end-s.start))
		a.allocs += s.allocs
		a.bytes += s.bytes
	}
	out := map[string]metric{}
	for _, k := range spanKinds {
		n := nsName(k)
		a := by[k]
		if a == nil {
			out[n], out[n+".allocs"], out[n+".bytes"] = metric{-1, "ns"}, metric{-1, "count"}, metric{-1, "B"}
			continue
		}
		c := float64(len(a.ns))
		out[n] = metric{median(a.ns), "ns"}
		out[n+".allocs"] = metric{float64(a.allocs) / c, "count"}
		out[n+".bytes"] = metric{float64(a.bytes) / c, "B"}
	}
	return out
}
