package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client drives one server over keep-alive loopback connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        2 * conns,
				MaxIdleConnsPerHost: 2 * conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// stageSpan is one pipeline stage span of a traced answer.
type stageSpan struct {
	Stage     string  `json:"stage"`
	LatencyMS float64 `json:"latency_ms"`
}

// answerResp is the part of a /v1/answer response the benchmark reads.
type answerResp struct {
	Answer           string `json:"answer"`
	Epoch            uint64 `json:"epoch"`
	LLMCalls         int    `json:"llm_calls"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
	Trace            *struct {
		Stages []stageSpan `json:"stages"`
	} `json:"trace"`
}

// outcome is what one answer request returned.
type outcome struct {
	latency time.Duration
	status  int
	cache   string // X-Cache header
	resp    answerResp
	conn    int // which connection issued it
	err     error
}

// failed reports a request that did not return 200 with a non-empty
// answer.
func (o *outcome) failed() bool {
	return o.err != nil || o.status != http.StatusOK || o.resp.Answer == ""
}

func (o *outcome) describe() string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("status %d, answer %q", o.status, o.resp.Answer)
}

// post sends one JSON body and returns the status, headers and body,
// timing from the send to the last byte read.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) (int, http.Header, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, time.Since(start), err
}

func (c *client) answer(body []byte, buf *bytes.Buffer) outcome {
	status, hdr, lat, err := c.post("/v1/answer", body, buf)
	o := outcome{latency: lat, status: status, err: err}
	if err != nil {
		return o
	}
	o.cache = hdr.Get("X-Cache")
	if status == http.StatusOK {
		o.err = json.Unmarshal(buf.Bytes(), &o.resp)
	}
	return o
}

// ingestResp is the /v1/ingest response.
type ingestResp struct {
	Added        int    `json:"added"`
	Epoch        uint64 `json:"epoch"`
	DeltaTriples int    `json:"delta_triples"`
}

func (c *client) ingest(body []byte) (ingestResp, time.Duration, error) {
	var buf bytes.Buffer
	status, _, lat, err := c.post("/v1/ingest", body, &buf)
	if err != nil {
		return ingestResp{}, 0, err
	}
	if status != http.StatusOK {
		return ingestResp{}, 0, fmt.Errorf("ingest: status %d: %s", status, buf.String())
	}
	var r ingestResp
	err = json.Unmarshal(buf.Bytes(), &r)
	return r, lat, err
}

// serverMetrics is the part of /v1/metrics the benchmark reads.
type serverMetrics struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	EmbedMemo struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"embed_memo"`
	Substrates map[string]struct {
		Epoch       uint64 `json:"epoch"`
		Compactions int64  `json:"compactions"`
		Durability  struct {
			Checkpoints int64 `json:"checkpoints"`
		} `json:"durability"`
	} `json:"substrates"`
}

func (c *client) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := c.hc.Get(c.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(b, &m)
	return m, err
}

// runParallel sends bodies over conns connections in a closed loop, each
// connection taking the next unsent body when its previous answer is in,
// and returns the outcomes in body order.
func (c *client) runParallel(bodies [][]byte, conns int) []outcome {
	out := make([]outcome, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				out[i] = c.answer(bodies[i], &buf)
				out[i].conn = w
			}
		}(w)
	}
	wg.Wait()
	return out
}
