package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is the load generator's side of the loopback connection. It
// holds at most conns connections, gives every request a timeout, and
// always drains and closes the response body: a body left open pins
// its connection, and with two connections that deadlocks the load.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int, timeout time.Duration) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: timeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// statusError is a response with an unexpected status code.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do sends one request and decodes a JSON response into out (when out
// is not nil) if the status is want. Any other status is a statusError.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) // drained before Close so the connection is reused
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(msg))}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// isRejected reports whether err is the server refusing work (503).
func isRejected(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusServiceUnavailable
}

// jobSnapshot is the subset of a job's JSON view the benchmark reads.
type jobSnapshot struct {
	ID          string     `json:"id"`
	Algo        string     `json:"algo"`
	State       string     `json:"state"`
	CacheHit    bool       `json:"cache_hit"`
	FusedWidth  int        `json:"fused_width"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

func (s *jobSnapshot) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// promText is one scrape of /metrics: every sample value summed over
// its label sets, keyed by metric name.
type promText map[string]float64

func (c *client) scrape(ctx context.Context) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode}
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns the growth of counter name between two scrapes.
func (p promText) delta(before promText, name string) float64 { return p[name] - before[name] }
