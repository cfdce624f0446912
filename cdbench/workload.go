package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"credist"
)

// Request is one generated call against the service. The HTTP driver sends
// Method+Target(+Body); the in-process replay and the correctness checks
// read the decoded parameters beside them, so all three agree on what was
// asked.
type Request struct {
	Route  string // spread | gain | seeds | explain | ingest
	Method string
	Target string // path and query
	Body   []byte // JSON body for POST /ingest
	// Due is the send time relative to the start of the measured window
	// (open loop). Closed-loop requests have Due 0 and go out back to back.
	Due time.Duration

	Seeds  []credist.NodeID // spread set, gain base, explain seed
	Cands  []credist.NodeID // gain candidates
	K      int
	Eps    float64
	Obj    *credist.Objective
	Top    int
	Tuples []credist.Tuple // ingest batch
}

func idList(ids []credist.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

func spreadReq(seeds []credist.NodeID) Request {
	return Request{Route: "spread", Method: "GET", Target: "/spread?seeds=" + idList(seeds), Seeds: seeds}
}

func gainReq(base, cands []credist.NodeID) Request {
	t := "/gain?candidates=" + idList(cands)
	if len(base) > 0 {
		t += "&seeds=" + idList(base)
	}
	return Request{Route: "gain", Method: "GET", Target: t, Seeds: base, Cands: cands}
}

func seedsReq(k int) Request {
	return Request{Route: "seeds", Method: "GET", Target: "/seeds?k=" + strconv.Itoa(k), K: k}
}

func approxSeedsReq(k int, eps float64) Request {
	return Request{Route: "seeds", Method: "GET",
		Target: "/seeds?k=" + strconv.Itoa(k) + "&eps=" + strconv.FormatFloat(eps, 'g', -1, 64), K: k, Eps: eps}
}

// objSeedsReq is a memo-bypassing /seeds selection under a campaign
// objective (audience, window and/or blocked rivals).
func objSeedsReq(k int, o *credist.Objective) Request {
	q := url.Values{}
	q.Set("k", strconv.Itoa(k))
	if o.Audience != nil {
		q.Set("audience", idList(o.Audience))
	}
	if o.Windowed {
		q.Set("window", strconv.FormatFloat(o.Window, 'g', -1, 64))
	}
	if o.Blocked != nil {
		q.Set("blocked", idList(o.Blocked))
	}
	return Request{Route: "seeds", Method: "GET", Target: "/seeds?" + q.Encode(), K: k, Obj: o}
}

func explainReq(x credist.NodeID, top int) Request {
	return Request{Route: "explain", Method: "GET",
		Target: "/explain?seed=" + strconv.Itoa(int(x)) + "&top=" + strconv.Itoa(top),
		Seeds:  []credist.NodeID{x}, Top: top}
}

type ingestTuple struct {
	User   credist.NodeID   `json:"user"`
	Action credist.ActionID `json:"action"`
	Time   float64          `json:"time"`
}

func ingestReq(tuples []credist.Tuple) Request {
	body := struct {
		Tuples []ingestTuple `json:"tuples"`
	}{Tuples: make([]ingestTuple, len(tuples))}
	for i, t := range tuples {
		body.Tuples[i] = ingestTuple{User: t.User, Action: t.Action, Time: t.Time}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return Request{Route: "ingest", Method: "POST", Target: "/ingest", Body: b, Tuples: tuples}
}

// newRNG derives the stream generator for one workload from the
// benchmark seed, so workloads sharing a seed still draw independent
// streams.
func newRNG(seed uint64, workload string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// pickHub draws a user id skewed toward low ids, which the generator's
// preferential attachment makes the hubs: about one draw in ten lands in
// the top 1% of ids. Rival seeds (blocked=) are drawn this way; every
// other id is uniform, as a client probing arbitrary users would send.
func pickHub(rng *rand.Rand, n int) credist.NodeID {
	u := rng.Float64()
	return credist.NodeID(u * u * float64(n))
}

func pickUniform(rng *rand.Rand, n int) credist.NodeID { return credist.NodeID(rng.IntN(n)) }

// weyl is a low-discrepancy walk over the ids: consecutive draws step by
// the golden ratio, so any m draws cover [0, n) nearly evenly and a run
// holds almost the same number of hub ids whatever the seed, which only
// sets the start. The expensive requests (a /gain base, the first seed
// of a /spread set) draw their anchor id from it, which keeps a run's
// tail from hinging on how many hubs the dice happened to pick.
type weyl struct{ x float64 }

func newWeyl(rng *rand.Rand) *weyl { return &weyl{x: rng.Float64()} }

func (w *weyl) next(n int) credist.NodeID {
	w.x += 0.6180339887498949
	w.x -= math.Floor(w.x)
	return credist.NodeID(w.x * float64(n))
}

// anchored is a set of size distinct ids whose first comes from w and the
// rest uniformly.
func anchored(rng *rand.Rand, w *weyl, n, size int) []credist.NodeID {
	first := w.next(n)
	return append([]credist.NodeID{first}, pickSetExcept(rng, n, size-1, first)...)
}

func pickSetExcept(rng *rand.Rand, n, size int, not credist.NodeID) []credist.NodeID {
	out := make([]credist.NodeID, 0, size)
	seen := map[credist.NodeID]bool{not: true}
	for len(out) < size {
		x := pickUniform(rng, n)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// pickSet draws size distinct users.
func pickSet(rng *rand.Rand, n, size int, pick func(*rand.Rand, int) credist.NodeID) []credist.NodeID {
	out := make([]credist.NodeID, 0, size)
	seen := make(map[credist.NodeID]bool, size)
	for len(out) < size {
		x := pick(rng, n)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// shuffledBlock returns the route labels of one mix block (counts[i]
// copies of routes[i]) in a seeded order, so every block holds the mix
// exactly and only the order varies with the seed.
func shuffledBlock(rng *rand.Rand, routes []string, counts []int) []string {
	var b []string
	for i, r := range routes {
		for j := 0; j < counts[i]; j++ {
			b = append(b, r)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// openLoop lays n requests on a fixed schedule at rate req/s, the route
// of each taken from consecutive shuffled mix blocks and its parameters
// from gen.
func openLoop(rng *rand.Rand, rate float64, n int, routes []string, counts []int, gen func(route string) Request) []Request {
	out := make([]Request, 0, n)
	var block []string
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = shuffledBlock(rng, routes, counts)
		}
		r := gen(block[0])
		block = block[1:]
		r.Due = time.Duration(float64(i) / rate * float64(time.Second))
		out = append(out, r)
	}
	return out
}

// serveMixStream is serve-mix's open loop: /spread : /gain (one-seed
// base) : /seeds?k=5 : /explain?seed= = 8:3:1:1 at rate req/s.
func serveMixStream(rng *rand.Rand, users int, rate float64, window time.Duration) []Request {
	n := int(rate * window.Seconds())
	ws, wg := newWeyl(rng), newWeyl(rng)
	return openLoop(rng, rate, n, []string{"spread", "gain", "seeds", "explain"}, []int{8, 3, 1, 1},
		func(route string) Request {
			switch route {
			case "spread":
				return spreadReq(anchored(rng, ws, users, 1+rng.IntN(5)))
			case "gain":
				return gainReq([]credist.NodeID{wg.next(users)}, pickSet(rng, users, 4, pickUniform))
			case "seeds":
				return seedsReq(5)
			default:
				return explainReq(pickUniform(rng, users), 5)
			}
		})
}

// ingestReadBlocks is how many read blocks follow each ingest episode's
// /seeds. A block is serve-mix's read mix, /spread : /gain = 8:3, in a
// seeded order; with most reads one route, the run's read p50 falls
// inside the /spread cluster rather than in the gap between the cheaper
// /gain answers and the dearer partitioned /spread answers.
const ingestReadBlocks = 2

// ingestStream is ingest-partitioned's closed loop: one episode per
// batch of the held-out tail, each one /ingest of that batch, one
// /seeds?k=5 (a fresh CELF, since the ingest reset the seed prefix),
// then ingestReadBlocks read blocks. The stream ends with the tail, so
// every episode a run sends has the same shape: a program fast enough to
// send them all before the window closes ends its window there instead
// of going on with a cheaper mix.
func ingestStream(rng *rand.Rand, users int, tail []credist.Tuple, batchActions int) []Request {
	batches := ingestBatches(tail, batchActions)
	ws, wg := newWeyl(rng), newWeyl(rng)
	var out []Request
	for _, b := range batches {
		out = append(out, b, seedsReq(5))
		for i := 0; i < ingestReadBlocks; i++ {
			for _, route := range shuffledBlock(rng, []string{"spread", "gain"}, []int{8, 3}) {
				if route == "gain" {
					out = append(out, gainReq([]credist.NodeID{wg.next(users)}, pickSet(rng, users, 4, pickUniform)))
				} else {
					out = append(out, spreadReq(anchored(rng, ws, users, 1+rng.IntN(5))))
				}
			}
		}
	}
	return out
}

// ingestBatches cuts the held-out tail into /ingest requests of
// batchActions whole actions each, in order.
func ingestBatches(tail []credist.Tuple, batchActions int) []Request {
	var out []Request
	for i := 0; i < len(tail); {
		first := tail[i].Action
		j := i
		for j < len(tail) && tail[j].Action < first+credist.ActionID(batchActions) {
			j++
		}
		out = append(out, ingestReq(tail[i:j:j]))
		i = j
	}
	return out
}

// selectWindow is the time window (log time units) of windowed
// selections. It is fixed because selection cost grows steeply with the
// window; the seed varies the audiences, the rivals and the order, so
// every windowed selection of a run repeats the same work.
const selectWindow = 6

// selectKinds are the request kinds of one select-fresh block, shuffled
// per block: one approximate selection, one targeted at an audience, and
// two each windowed and with blocked rivals. Windowed and blocked
// selections cost about the same and dominate, so the p50 and p90 of a
// run fall inside that one cluster rather than on a boundary between
// kinds.
var selectKinds = []string{"eps", "audience", "window", "window", "blocked", "blocked"}

// selectFreshStream is select-fresh's closed loop: n memo-bypassing
// /seeds?k=20 selections, far more than a run can send, and nothing else.
func selectFreshStream(rng *rand.Rand, users, n int) []Request {
	const k = 20
	out := make([]Request, 0, n)
	var block []string
	for len(out) < n {
		if len(block) == 0 {
			block = append([]string(nil), selectKinds...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind := block[0]
		block = block[1:]
		switch kind {
		case "eps":
			out = append(out, approxSeedsReq(k, 0.1))
		case "audience":
			out = append(out, objSeedsReq(k, &credist.Objective{Audience: sortedIDs(pickSet(rng, users, 200, pickUniform))}))
		case "window":
			out = append(out, objSeedsReq(k, &credist.Objective{Windowed: true, Window: selectWindow}))
		case "blocked":
			out = append(out, objSeedsReq(k, &credist.Objective{Blocked: sortedIDs(pickSet(rng, users, 2, pickHub))}))
		}
	}
	return out
}

func sortedIDs(ids []credist.NodeID) []credist.NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// warmupRequests are sent (HTTP) or replayed (in-process) before the
// measured window: the first /seeds, the provenance index behind
// /explain, the RR pool behind eps= (only where the tier can sample:
// a partitioned deployment cannot), and one exact spread and gain.
func warmupRequests(partitioned bool) []Request {
	out := []Request{seedsReq(5), explainReq(0, 5), explainReq(1, 5), explainReq(2, 5)}
	if !partitioned {
		out = append(out, approxSeedsReq(5, 0.1))
	}
	return append(out, spreadReq([]credist.NodeID{0, 1}), gainReq([]credist.NodeID{0}, []credist.NodeID{1, 2}))
}
