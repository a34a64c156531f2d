package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen sends /rank requests to one server. Each client owns one
// persistent connection, so the process never holds more connections than
// it has clients.
type loadgen struct {
	url     string
	clients []*http.Client
}

func newLoadgen(url string, clients int) *loadgen {
	lg := &loadgen{url: url}
	for i := 0; i < clients; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		})
	}
	return lg
}

// close drops the idle connections.
func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// record is one request as the client saw it.
type record struct {
	body       int // index into the workload's bodies
	client     int
	sent, done time.Time
	status     int // HTTP status; 0 when no response arrived
	answer     []byte
	ok         bool // status 200 and the answer passed every check
}

func (r *record) latencyMS() float64 { return float64(r.done.Sub(r.sent).Nanoseconds()) / 1e6 }

// send posts one body and reads the whole answer.
func (lg *loadgen) send(client int, data []byte) record {
	r := record{client: client, sent: time.Now()}
	resp, err := lg.clients[client].Post(lg.url+"/rank", "application/json", bytes.NewReader(data))
	if err == nil {
		r.answer, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // the body is fully read; a close error changes nothing
		if err == nil {
			r.status = resp.StatusCode
		}
	}
	r.done = time.Now()
	return r
}

// closed sends every request of order, closed loop, from the first clients
// clients (all when 0): each client takes the next unsent request as soon as
// its previous one is answered. It returns when every answer is in.
func (lg *loadgen) closed(bodies [][]byte, order []int, clients int) []record {
	if clients <= 0 || clients > len(lg.clients) {
		clients = len(lg.clients)
	}
	recs := make([]record, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				recs[i] = lg.send(c, bodies[order[i]])
				recs[i].body = order[i]
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// get fetches a path on the first client's connection (no other connection
// is opened) and returns the body of a 200 answer.
func (lg *loadgen) get(path string) ([]byte, error) {
	resp, err := lg.clients[0].Get(lg.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}
