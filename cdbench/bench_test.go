package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"credist"
)

// encodeStream renders a request stream byte for byte (method, target,
// body, due time), the form the determinism test compares.
func encodeStream(reqs []Request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %s %s %s\n", r.Due.Nanoseconds(), r.Method, r.Target, r.Body)
	}
	return b.Bytes()
}

func genAll(seed uint64) map[string][]byte {
	out := map[string][]byte{}
	out["serve-mix"] = encodeStream(serveMixStream(newRNG(seed, "serve-mix"), 3000, 200, 3*time.Second))
	out["select-fresh"] = encodeStream(selectFreshStream(newRNG(seed, "select-fresh"), 40000, 40))
	out["ingest-partitioned"] = encodeStream(ingestStream(newRNG(seed, "ingest-partitioned"), 3000, testTail(), 10))
	return out
}

func TestStreamSameSeedSameBytes(t *testing.T) {
	a, b, c := genAll(7), genAll(7), genAll(8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func testTail() []credist.Tuple {
	var tail []credist.Tuple
	for a := 100; a < 137; a++ {
		for u := 0; u < 1+a%4; u++ {
			tail = append(tail, credist.Tuple{User: credist.NodeID(u * 7), Action: credist.ActionID(a), Time: float64(a) + float64(u)/10})
		}
	}
	return tail
}

func TestIngestScheduleDeterministic(t *testing.T) {
	a := ingestStream(newRNG(3, "ingest-partitioned"), 3000, testTail(), 10)
	b := ingestStream(newRNG(3, "ingest-partitioned"), 3000, testTail(), 10)
	if !bytes.Equal(encodeStream(a), encodeStream(b)) {
		t.Fatal("the same seed and tail gave two different ingest streams")
	}
	// 37 tail actions make batches of 10, 10, 10 and 7 whole actions, one
	// opening each of four episodes; every episode then asks for seeds and
	// sends its read blocks, and the stream ends with the tail.
	var batches []Request
	episodes := 0
	for _, r := range a {
		switch r.Route {
		case "ingest":
			batches = append(batches, r)
		case "seeds":
			episodes++
		}
	}
	if len(a) != episodes*ingestEpisodeLen || episodes != 4 {
		t.Fatalf("%d requests in %d episodes with %d ingests", len(a), episodes, len(batches))
	}
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	for e := 0; e < episodes; e++ {
		if a[e*ingestEpisodeLen].Route != "ingest" {
			t.Fatalf("episode %d does not open with its ingest", e)
		}
	}
	next := credist.ActionID(100)
	for i, r := range batches {
		first, last := r.Tuples[0].Action, r.Tuples[len(r.Tuples)-1].Action
		if first != next || last-first >= 10 {
			t.Errorf("batch %d holds actions %d..%d, want up to 10 from %d", i, first, last, next)
		}
		next = last + 1
	}
	if next != 137 {
		t.Errorf("batches end before action %d, want 137", next)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{hundred, 0.99, 99},
		{hundred, 0.9, 90},
		{hundred, 0.5, 50},
		{hundred, 1, 100},
		{hundred, 0.001, 1},
		{[]float64{5}, 0.5, 5},
		{[]float64{5}, 0.99, 5},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{1, 2}, 0.51, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 0.76, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(n=%d, %g) = %g, want %g", len(c.xs), c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

func TestSummarizeSeparatesRefusals(t *testing.T) {
	outs := []outcome{
		{sent: true, status: http.StatusOK, late: 2 * time.Millisecond},
		{sent: true, status: http.StatusInternalServerError},
		{refused: true},
		{sent: true, err: os.ErrDeadlineExceeded},
	}
	s := summarize(outs)
	if s.attempted != 4 || s.sent != 3 || s.ok != 1 || s.refused != 1 || s.serverErrors != 1 || s.transportErrors != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.failed() != 3 {
		t.Errorf("failed = %d, want 3 (refusals count as failures)", s.failed())
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program: the
// workloads it runs and the metrics it prints, by name and unit.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndGated)
	same("per_layer", spec.PerLayer, perLayer)
}
