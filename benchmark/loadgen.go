package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// verifyEvery is how thinly the measured windows sample responses for the
// oracle; the traced pass checks every one.
const verifyEvery = 50

// client is one closed-loop caller: one keep-alive connection, the next
// request sent only when the previous reply has been read.
type client struct {
	id   int
	http *http.Client
	url  string
	gen  *generator
	// sent counts this client's stream requests over the server's
	// lifetime; request number sent*numClients+id is never reused.
	sent uint64
	buf  bytes.Buffer
}

func newClients(addr string, gen *generator) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = &client{
			id:  i,
			url: "http://" + addr + "/query",
			gen: gen,
			http: &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// post sends one body and reads the whole reply into the client's buffer,
// which the next post overwrites.
func (c *client) post(body []byte) (status int, reply []byte, err error) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// exchange is one request of a pass as its observer sees it.
type exchange struct {
	client int
	index  int // position in the client's sample list for this pass
	body   []byte
	reply  []byte        // valid until the observer returns
	start  time.Duration // since the pass began
	lat    time.Duration
}

// pass is the outcome of one timed phase: samples per client, in send order.
type pass struct {
	origin  time.Time
	window  time.Duration
	samples [][]sample
	// firstErr is the first transport or HTTP failure, kept for the report.
	firstErr error
}

func (p *pass) all() []sample {
	var out []sample
	for _, s := range p.samples {
		out = append(out, s...)
	}
	return out
}

// runPass drives every client back-to-back for window. observe, when not
// nil, is called on the calling client's goroutine after each 200 reply.
func runPass(clients []*client, window time.Duration, observe func(*exchange)) *pass {
	p := &pass{origin: time.Now(), window: window, samples: make([][]sample, len(clients))}
	var errOnce sync.Once
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				start := time.Now()
				if start.Sub(p.origin) >= window {
					return
				}
				body := c.gen.body(c.sent*numClients + uint64(c.id))
				c.sent++
				status, reply, err := c.post(body)
				end := time.Now()
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(reply))
				}
				if err != nil {
					errOnce.Do(func() { p.firstErr = err })
				}
				p.samples[c.id] = append(p.samples[c.id], sample{done: end.Sub(p.origin), lat: end.Sub(start), ok: err == nil})
				if err == nil && observe != nil {
					observe(&exchange{client: c.id, index: len(p.samples[c.id]) - 1, body: body, reply: reply, start: start.Sub(p.origin), lat: end.Sub(start)})
				}
			}
		}(c)
	}
	wg.Wait()
	return p
}

// kept is a reply copied out of a pass for checking after it, when the
// oracle's loops no longer compete with the server for the two cores.
type kept struct {
	client, index int
	body, reply   []byte
}

// keeper collects replies per client without locking.
type keeper struct{ perClient [][]kept }

func newKeeper() *keeper { return &keeper{perClient: make([][]kept, numClients)} }

func (k *keeper) keep(x *exchange) {
	k.perClient[x.client] = append(k.perClient[x.client], kept{x.client, x.index, x.body, append([]byte(nil), x.reply...)})
}

// everyNth is the observer that keeps each client's every n-th reply.
func (k *keeper) everyNth(n int) func(*exchange) {
	return func(x *exchange) {
		if x.index%n == 0 {
			k.keep(x)
		}
	}
}

// verify checks every kept reply, one goroutine per client's share, and
// marks wrong answers failed in the pass. It returns the first mismatch.
func (k *keeper) verify(p *pass, check func(body, reply []byte) error) error {
	var first error
	var once sync.Once
	var wg sync.WaitGroup
	for _, share := range k.perClient {
		wg.Add(1)
		go func(share []kept) {
			defer wg.Done()
			for _, r := range share {
				if err := check(r.body, r.reply); err != nil {
					p.samples[r.client][r.index].ok = false
					once.Do(func() { first = err })
				}
			}
		}(share)
	}
	wg.Wait()
	return first
}

// prefill issues each body once, spread over the clients, outside any
// timed window.
func prefill(clients []*client, bodies [][]byte) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := c.id; i < len(bodies); i += len(clients) {
				status, reply, err := c.post(bodies[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(reply))
				}
				if err != nil {
					errs[c.id] = fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
