package replication

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/xmlcodec"
)

// HTTP transport for replication: the paper's prototype bridges devices with
// web services because mobile VMs of the era lacked remote invocation.
// Handler serves a Master; Client is the matching Transport.
//
// Wire protocol:
//
//	GET /repl/root/{name}   -> 200 JSON {"id": N, "class": "..."} | 404
//	GET /repl/cluster/{id}  -> 200 XML wrapper document | 404

// Handler adapts a Master to HTTP.
type Handler struct {
	m *Master
}

var _ http.Handler = (*Handler)(nil)

// NewHandler returns an HTTP handler serving m.
func NewHandler(m *Master) *Handler { return &Handler{m: m} }

type rootResponse struct {
	ID    uint64 `json:"id"`
	Class string `json:"class"`
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/repl/update" {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		doc, err := xmlcodec.Decode(data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.m.apply(doc); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/repl/root/"):
		raw := strings.TrimPrefix(r.URL.Path, "/repl/root/")
		name, err := url.PathUnescape(raw)
		if err != nil || name == "" {
			http.Error(w, "bad root name", http.StatusBadRequest)
			return
		}
		id, class, err := h.m.FetchRoot(r.Context(), name)
		if errors.Is(err, ErrUnknownRoot) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rootResponse{ID: uint64(id), Class: class})
	case strings.HasPrefix(r.URL.Path, "/repl/cluster/"):
		raw := strings.TrimPrefix(r.URL.Path, "/repl/cluster/")
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad object id", http.StatusBadRequest)
			return
		}
		doc, err := h.m.FetchCluster(r.Context(), heap.ObjID(id))
		if errors.Is(err, ErrUnknownObject) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data, err := doc.Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		_, _ = w.Write(data)
	default:
		http.NotFound(w, r)
	}
}

// Client is a Transport talking to a remote Handler.
type Client struct {
	base string
	hc   *http.Client
}

var _ Transport = (*Client)(nil)

// NewClient returns a replication client for the master at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// get issues a context-bound GET, carrying any swap trace ID from ctx in the
// X-Obiswap-Trace header.
func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if id := obs.TraceFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	return c.hc.Do(req)
}

// FetchRoot implements Transport.
func (c *Client) FetchRoot(ctx context.Context, name string) (heap.ObjID, string, error) {
	resp, err := c.get(ctx, c.base+"/repl/root/"+url.PathEscape(name))
	if err != nil {
		return heap.NilID, "", fmt.Errorf("replication: http: %w", err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var rr rootResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return heap.NilID, "", fmt.Errorf("replication: http root: %w", err)
		}
		return heap.ObjID(rr.ID), rr.Class, nil
	case http.StatusNotFound:
		return heap.NilID, "", fmt.Errorf("%w: %q", ErrUnknownRoot, name)
	default:
		return heap.NilID, "", fmt.Errorf("replication: http root: status %d", resp.StatusCode)
	}
}

// FetchCluster implements Transport.
func (c *Client) FetchCluster(ctx context.Context, id heap.ObjID) (*xmlcodec.Doc, error) {
	resp, err := c.get(ctx, c.base+"/repl/cluster/"+strconv.FormatUint(uint64(id), 10))
	if err != nil {
		return nil, fmt.Errorf("replication: http: %w", err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("replication: http cluster: %w", err)
		}
		return xmlcodec.Decode(data)
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: @%d", ErrUnknownObject, id)
	default:
		return nil, fmt.Errorf("replication: http cluster: status %d", resp.StatusCode)
	}
}

// PushCluster implements UpdateTransport over HTTP.
func (c *Client) PushCluster(ctx context.Context, doc *xmlcodec.Doc) error {
	data, err := doc.Encode()
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/repl/update", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	if id := obs.TraceFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replication: http update: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: http update: status %d", resp.StatusCode)
	}
	return nil
}

var _ UpdateTransport = (*Client)(nil)

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
