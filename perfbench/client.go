package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"d2t2/internal/serve"
)

// client drives one d2t2d server in-process through its HTTP handler:
// the whole request path runs (routing, decoding, the cache ladder, the
// compute pool) without a socket, whose scheduling would add noise.
type client struct {
	ctx context.Context
	srv *serve.Server
	h   http.Handler
	rec recorder
}

func newClient(ctx context.Context) (*client, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	return &client{ctx: ctx, srv: srv, h: srv.Handler(), rec: recorder{hdr: make(http.Header)}}, nil
}

// close shuts the server down and waits for its workers to exit.
func (c *client) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = c.srv.Shutdown(ctx) // in-process server: nothing is left to drain
}

// post sends one request and returns the response body, which stays
// valid until the next request. A status other than 200 is an error.
func (c *client) post(path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	c.rec.reset()
	c.h.ServeHTTP(&c.rec, req)
	if c.rec.code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, c.rec.code, bytes.TrimSpace(c.rec.buf.Bytes()))
	}
	return c.rec.buf.Bytes(), nil
}

// postJSON marshals v, posts it and returns a copy of the response body.
func (c *client) postJSON(path string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out, err := c.post(path, "application/json", b)
	return bytes.Clone(out), err
}

// upload ingests a raw tensor file and returns its content address.
func (c *client) upload(body []byte) (string, error) {
	out, err := c.post("/v1/tensors", "application/octet-stream", body)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return "", fmt.Errorf("ingest response: %w", err)
	}
	return resp.ID, nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(b)
}

// Request and response shapes of the d2t2d API the workloads use.

type optimizeReq struct {
	Kernel      string            `json:"kernel"`
	Inputs      map[string]string `json:"inputs"`
	BufferWords int               `json:"bufferWords,omitempty"`
	Measure     bool              `json:"measure,omitempty"`
}

type predictReq struct {
	Kernel string            `json:"kernel"`
	Inputs map[string]string `json:"inputs"`
	Config map[string]int    `json:"config"`
}

type optimizeResp struct {
	Config      map[string]int `json:"config"`
	PredictedMB float64        `json:"predictedMB"`
	MeasuredMB  *float64       `json:"measuredMB"`
}

type deltaReq struct {
	Crds [][]int   `json:"crds"`
	Vals []float64 `json:"vals"`
	Tile int       `json:"tile"`
}

type deltaResp struct {
	ID           string `json:"id"`
	TouchedTiles int    `json:"touchedTiles"`
	TotalTiles   int    `json:"totalTiles"`
}

type batchReq struct {
	Jobs []optimizeReq `json:"jobs"`
}

type batchResp struct {
	Jobs []struct {
		Response json.RawMessage `json:"response"`
		Error    string          `json:"error"`
	} `json:"jobs"`
}
