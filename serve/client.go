package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
)

// Client is a Go client for a Server. The zero HTTPClient means
// http.DefaultClient. With Retry429 > 0, a 429 response is retried up to
// that many times, sleeping the server's Retry-After hint between attempts;
// at 0 the *HTTPError surfaces to the caller, which can inspect RetryAfter
// itself.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	Retry429   int
}

// HTTPError is a non-2xx response: the status, the server's JSON error
// message, and the parsed Retry-After hint when the server sent one.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Msg)
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return http.DefaultClient
}

// do posts body and returns the response bytes, applying the 429 retry
// policy.
func (cl *Client) do(method, path string, body []byte) ([]byte, int, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, cl.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		resp, err := cl.httpClient().Do(req)
		if err != nil {
			return nil, 0, err
		}
		ok := resp.StatusCode >= 200 && resp.StatusCode < 300
		out, err := readResponse(resp, ok)
		resp.Body.Close()
		if err != nil {
			return nil, resp.StatusCode, err
		}
		if ok {
			return out, resp.StatusCode, nil
		}
		herr := &HTTPError{Status: resp.StatusCode, Msg: errorMessage(out)}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			herr.RetryAfter = time.Duration(ra) * time.Second
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < cl.Retry429 {
			// Honor the server's hint: it sized the wait to its own drain
			// rate; hammering sooner just earns another rejection.
			time.Sleep(herr.RetryAfter)
			continue
		}
		return nil, resp.StatusCode, herr
	}
}

// maxErrorBody caps how much of a non-2xx response is read: the server's
// error bodies are one line of JSON, and a proxy's HTML page is only quoted.
const maxErrorBody = 64 << 10

// readResponse reads a response body: a result in one read sized by the
// declared Content-Length (a server streaming result frames always declares
// it), an error body up to maxErrorBody.
func readResponse(resp *http.Response, ok bool) ([]byte, error) {
	if !ok {
		return io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	}
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes {
		out := make([]byte, n)
		_, err := io.ReadFull(resp.Body, out)
		return out, err
	}
	return io.ReadAll(resp.Body)
}

// errorMessage extracts the server's {"error": ...} body, falling back to
// the raw bytes.
func errorMessage(body []byte) string {
	var m map[string]string
	if err := json.Unmarshal(body, &m); err == nil && m["error"] != "" {
		return m["error"]
	}
	return string(bytes.TrimSpace(body))
}

// multiply is the dtype-generic body of Multiply/Multiply32: POST one
// request frame and fold the product frame into c (the wire computes
// C = A·B; adding the product into a zeroed c reproduces MulAdd's bits
// exactly).
func multiply[E matrix.Element](cl *Client, c, a, b matrix.Mat[E]) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("serve: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	body, _, err := cl.do(http.MethodPost, "/v1/multiply", AppendRequest[E](nil, a, b))
	if err != nil {
		return err
	}
	return addResult(c, body)
}

// Multiply computes c += a·b on the server (float64).
func (cl *Client) Multiply(c, a, b fmmfam.Matrix) error { return multiply(cl, c, a, b) }

// Multiply32 computes c += a·b on the server (float32).
func (cl *Client) Multiply32(c, a, b fmmfam.Matrix32) error { return multiply(cl, c, a, b) }

// MultiplyBatch ships the jobs as one /v1/batch request and folds each
// returned product into its job's C. Jobs must be independent, like
// Multiplier.MulAddBatch.
func (cl *Client) MultiplyBatch(jobs []fmmfam.BatchJob) error {
	if len(jobs) == 0 {
		return nil
	}
	body := make([]byte, 4)
	binary.LittleEndian.PutUint32(body, uint32(len(jobs)))
	for i, j := range jobs {
		if j.A.Cols != j.B.Rows || j.C.Rows != j.A.Rows || j.C.Cols != j.B.Cols {
			return fmt.Errorf("serve: batch job %d: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", i, j.C.Rows, j.C.Cols, j.A.Rows, j.A.Cols, j.B.Rows, j.B.Cols)
		}
		body = AppendRequest[float64](body, j.A, j.B)
	}
	out, _, err := cl.do(http.MethodPost, "/v1/batch", body)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		fl := int64(headerLen) + int64(j.C.Rows)*int64(j.C.Cols)*8
		if int64(len(out)) < fl {
			return fmt.Errorf("serve: batch response truncated at job %d", i)
		}
		if err := addResult(j.C, out[:fl]); err != nil {
			return fmt.Errorf("serve: batch response job %d: %w", i, err)
		}
		out = out[fl:]
	}
	return nil
}

// AsyncHandle is one submitted-but-uncollected server-side product.
type AsyncHandle struct {
	cl *Client
	id string
	c  fmmfam.Matrix
}

// ID returns the server-assigned submission id.
func (h *AsyncHandle) ID() string { return h.id }

// SubmitAsync submits c += a·b (float64) and returns immediately with a
// handle; Collect blocks until the server has the result and folds it into
// c. Each handle collects exactly once.
func (cl *Client) SubmitAsync(c, a, b fmmfam.Matrix) (*AsyncHandle, error) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return nil, fmt.Errorf("serve: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	body, _, err := cl.do(http.MethodPost, "/v1/async", AppendRequest[float64](nil, a, b))
	if err != nil {
		return nil, err
	}
	var resp map[string]string
	if err := json.Unmarshal(body, &resp); err != nil || resp["id"] == "" {
		return nil, fmt.Errorf("serve: bad async submit response %q", body)
	}
	return &AsyncHandle{cl: cl, id: resp["id"], c: c}, nil
}

// Collect blocks until the submission has executed, folds the product into
// the destination passed to SubmitAsync, and releases the server-side
// result.
func (h *AsyncHandle) Collect() error {
	body, _, err := h.cl.do(http.MethodGet, "/v1/async/"+h.id, nil)
	if err != nil {
		return err
	}
	return addResult(h.c, body)
}

// Stats fetches the server's /v1/stats snapshot.
func (cl *Client) Stats() (Stats, error) {
	body, _, err := cl.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
