package main

// The serve-mix load generator. It runs in a process of its own, as the
// service's users do: in the service's process it would share the Go
// scheduler with the proof pool, and its sends and reads would queue
// behind evaluation work, so the figures would measure the generator as
// much as the service.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clientJob is what the benchmark hands the generator on its standard
// input: where the service listens, for how long to send, the hot specs,
// and the seed of the fresh ones.
type clientJob struct {
	Base     string   `json:"base"`
	WindowNs int64    `json:"window_ns"`
	Seed     int64    `json:"seed"`
	Hot      []string `json:"hot"`
}

// clientResult is one request and its outcome; times are offsets from
// the window's start. Seed names a fresh spec's instance; Hot indexes
// the hot specs (-1 for a fresh spec).
type clientResult struct {
	Tenant   string `json:"tenant"`
	Spec     string `json:"spec"`
	Seed     int64  `json:"seed"`
	Hot      int    `json:"hot"`
	StartNs  int64  `json:"start_ns"`
	DoneNs   int64  `json:"done_ns"`
	SubmitNs int64  `json:"submit_ns"`
	ResultNs int64  `json:"result_ns"`
	State    string `json:"state"`
	Status   int    `json:"status"`
	Body     []byte `json:"body"`
	Err      string `json:"err"`
}

// freshSeedBase puts fresh instance seeds above every hot seed, so a
// fresh spec never re-reads a cached proof.
const freshSeedBase = 1 << 41

// hotPeriod paces the interactive tenant's re-reads: one every
// hotPeriod, or as soon as the previous one returns if it took longer —
// about as many re-reads as cold proofs on a 2-CPU host.
const hotPeriod = 80 * time.Millisecond

// endLine is the line the generator writes when its last request has
// returned, ahead of the results.
const endLine = "end\n"

// runClientProcess is the generator's main. It reads a clientJob from in,
// writes the window's start (Unix nanoseconds) as its first line, runs
// three clients until the window ends, writes endLine, and then writes
// every request as one JSON array. The interactive tenant re-reads the
// hot specs in turn, paced by hotPeriod, while it asks for fresh
// triangle counts back to back; the batch tenant asks for fresh
// Hamiltonian-cycle counts back to back. The pool is therefore always
// contended, and every interactive request — hit or cold — meets that
// contention.
func runClientProcess(in io.Reader, out io.Writer) error {
	var job clientJob
	if err := json.NewDecoder(in).Decode(&job); err != nil {
		return fmt.Errorf("reading the job: %w", err)
	}
	c := newHTTPClient(job.Base)
	defer c.close()
	window := time.Duration(job.WindowNs)
	ctx, cancel := context.WithTimeout(context.Background(), window+120*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(job.Seed))
	used := map[int64]bool{}
	fresh := func() int64 {
		for {
			if s := freshSeedBase + rng.Int63n(freshSeedBase); !used[s] {
				used[s] = true
				return s
			}
		}
	}
	// Both tenants' instances are drawn up front, in one order, so the
	// seed alone fixes which instances a run can see.
	const maxRequests = 1 << 14
	cold, batch := make([]int64, maxRequests), make([]int64, maxRequests)
	for i := range cold {
		cold[i], batch[i] = fresh(), fresh()
	}
	origin := time.Now().Add(100 * time.Millisecond)
	if _, err := fmt.Fprintf(out, "%d\n", origin.UnixNano()); err != nil {
		return err
	}
	time.Sleep(time.Until(origin))
	var mu sync.Mutex
	var results []clientResult
	var wg sync.WaitGroup
	// loop runs one client: request i is sent no earlier than i·period
	// into the window, and only after request i-1 has returned.
	loop := func(tenant string, period time.Duration, next func(i int) (spec string, seed int64, hot int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < maxRequests; i++ {
				time.Sleep(time.Until(origin.Add(time.Duration(i) * period)))
				if time.Since(origin) >= window {
					return
				}
				spec, seed, hot := next(i)
				res := c.do(ctx, tenant, spec, origin)
				res.Seed, res.Hot = seed, hot
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	loop("interactive", hotPeriod, func(i int) (string, int64, int) {
		h := i % len(job.Hot)
		return job.Hot[h], 0, h
	})
	loop("interactive", 0, func(i int) (string, int64, int) { return triangleSpec(cold[i]), cold[i], -1 })
	loop("batch", 0, func(i int) (string, int64, int) { return hamiltonSpec(batch[i]), batch[i], -1 })
	wg.Wait()
	if _, err := io.WriteString(out, endLine); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(results)
}

// httpClient speaks the proof service's HTTP interface over unencrypted
// HTTP/2, so every request multiplexes over one connection.
type httpClient struct {
	base      string
	transport *http.Transport
	client    *http.Client
}

func newHTTPClient(base string) *httpClient {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	tr := &http.Transport{Protocols: &protos, MaxConnsPerHost: runtime.NumCPU()}
	return &httpClient{base: base, transport: tr, client: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.transport.CloseIdleConnections() }

// do sends one request: POST /v1/submit, then GET /v1/result.
func (c *httpClient) do(ctx context.Context, tenant, spec string, origin time.Time) clientResult {
	res := clientResult{Tenant: tenant, Spec: spec}
	res.StartNs = int64(time.Since(origin))
	t0 := time.Now()
	digest, state, status, err := c.submit(ctx, tenant, spec)
	res.SubmitNs = int64(time.Since(t0))
	res.State, res.Status = state, status
	if err == nil {
		t1 := time.Now()
		res.Body, res.Status, err = c.result(ctx, digest)
		res.ResultNs = int64(time.Since(t1))
	}
	if err != nil {
		res.Err = err.Error()
	}
	res.DoneNs = int64(time.Since(origin))
	return res
}

// submit posts one spec and returns the digest and admission state.
func (c *httpClient) submit(ctx context.Context, tenant, spec string) (digest, state string, status int, err error) {
	body, err := json.Marshal(map[string]string{"tenant": tenant, "spec": spec})
	if err != nil {
		return "", "", 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		return "", "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return "", "", 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Digest, State, Error string
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", "", resp.StatusCode, fmt.Errorf("submit %q: decoding the answer: %w", spec, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return out.Digest, "", resp.StatusCode, fmt.Errorf("submit %q: HTTP %d %s", spec, resp.StatusCode, out.Error)
	}
	return out.Digest, out.State, resp.StatusCode, nil
}

// result long-polls for a digest's proof bytes.
func (c *httpClient) result(ctx context.Context, digest string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/result?digest="+url.QueryEscape(digest), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("result %s: HTTP %d %s", digest, resp.StatusCode, body)
	}
	return body, resp.StatusCode, nil
}

// metrics reads GET /metrics into a map from series to value.
func (c *httpClient) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(value, 64); err == nil {
			out[series] = x
		}
	}
	return out, sc.Err()
}
