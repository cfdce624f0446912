package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"time"
)

// outcome is what the driver saw for one request.
type outcome struct {
	sent    bool
	refused bool  // the driver's own backlog cap dropped it; never sent
	status  int   // HTTP status; 0 on a transport error
	err     error // transport error
	// lat runs from the due time (open loop) or the send (closed loop) to
	// the end of the response body; late is how far past due the send went.
	lat, late time.Duration
	body      []byte // kept only when the caller asked for it
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status == http.StatusOK }

// queueCap bounds the open-loop backlog: a request that comes due while
// this many are already waiting for a connection is refused by the
// driver instead of queued, so an overloaded server shows up as refusals
// and lateness, not as an unbounded queue inside the driver.
const queueCap = 128

// newClient returns an HTTP client holding at most conns keep-alive
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}, Timeout: 60 * time.Second}
}

func send(c *http.Client, base string, r *Request, keep bool) (status int, body []byte, err error) {
	var rd io.Reader
	if r.Body != nil {
		rd = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Target, rd)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep || resp.StatusCode != http.StatusOK {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, body, err
}

// runOpen sends reqs on their schedule from start over conns connections
// and returns one outcome per request. Latency is timed from each
// request's due time, so time spent waiting for a free connection counts
// against the server, as it would for a real client. keep retains the
// response bodies for the correctness checks.
func runOpen(base string, reqs []Request, conns int, start time.Time, keep bool) []outcome {
	c := newClient(conns)
	defer c.CloseIdleConnections()
	out := make([]outcome, len(reqs))
	queue := make(chan int, queueCap)
	done := make(chan struct{})
	for w := 0; w < conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				due := start.Add(reqs[i].Due)
				sentAt := time.Now()
				status, body, err := send(c, base, &reqs[i], keep)
				end := time.Now()
				out[i] = outcome{sent: true, status: status, err: err, body: body,
					lat: end.Sub(due), late: max(0, sentAt.Sub(due))}
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(reqs[i].Due)); d > 0 {
			time.Sleep(d)
		}
		select {
		case queue <- i:
		default:
			out[i] = outcome{refused: true}
		}
	}
	close(queue)
	for w := 0; w < conns; w++ {
		<-done
	}
	return out
}

// runClosed sends reqs one after another on one connection until window
// has passed, and returns the outcomes of those sent, bodies kept for the
// correctness checks. Latency is timed from each send; lateness is the
// driver's own turnaround, from the end of the previous response to this
// send.
func runClosed(base string, reqs []Request, window time.Duration) []outcome {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var out []outcome
	last := time.Now()
	stop := last.Add(window)
	for i := range reqs {
		t := time.Now()
		if !t.Before(stop) {
			break
		}
		status, body, err := send(c, base, &reqs[i], true)
		end := time.Now()
		out = append(out, outcome{sent: true, status: status, err: err, body: body, lat: end.Sub(t), late: t.Sub(last)})
		last = end
	}
	return out
}

// tally summarises a set of outcomes.
type tally struct {
	attempted, sent, ok, refused, serverErrors, transportErrors int
	lateP99                                                     float64 // ms
}

func summarize(outs []outcome) tally {
	var t tally
	var late []float64
	for i := range outs {
		o := &outs[i]
		t.attempted++
		switch {
		case o.refused:
			t.refused++
			continue
		case o.err != nil:
			t.transportErrors++
		case o.status != http.StatusOK:
			t.serverErrors++
		default:
			t.ok++
		}
		t.sent++
		late = append(late, ms(o.late))
	}
	sort.Float64s(late)
	if len(late) > 0 {
		t.lateP99 = quantile(late, 0.99)
	}
	return t
}

func (t tally) failed() int { return t.refused + t.serverErrors + t.transportErrors }
