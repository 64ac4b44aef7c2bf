package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// loopback is an HTTP server on 127.0.0.1 serving one handler.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close stops the server and waits for its serving goroutine to end.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// maxConns bounds the benchmark's connections to one server.
const maxConns = 2

// client is the benchmark's HTTP client of one loopback server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a 429: the server shed the request.
var errRefused = errors.New("refused (429)")

// httpStatusError is a non-2xx answer the caller may handle (404, 409).
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// stale reports whether err is a 404 or 409: a session stranded by a
// replace or an append, which the caller reopens.
func stale(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && (se.status == http.StatusNotFound || se.status == http.StatusConflict)
}

// call sends one request and decodes a 2xx JSON answer into out (when
// non-nil). req and parent, when req is non-zero, carry the trace context.
func (c *client) call(method, path string, body []byte, out any, req, parent int64) error {
	r, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if req != 0 {
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errRefused
	case resp.StatusCode/100 != 2:
		return &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return nil
}

// openSession opens a /v1 session on table and returns its id.
func (c *client) openSession(table string) (string, error) {
	body, _ := json.Marshal(map[string]string{"table": table})
	var info struct {
		Session string `json:"session"`
	}
	if err := c.call(http.MethodPost, "/v1/sessions", body, &info, 0, 0); err != nil {
		return "", err
	}
	if info.Session == "" {
		return "", errors.New("session create returned no id")
	}
	return info.Session, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
