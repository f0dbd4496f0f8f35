package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"objectswap/internal/obs"
)

// HTTP transport for the store contract: the paper's prototype moved swapped
// XML through a web-services communication bridge, because the .Net Compact
// Framework of the day lacked remote method invocation. Handler exposes any
// Store over HTTP; Client is the matching Store implementation used by the
// constrained device.
//
// Wire protocol (keys are path-escaped):
//
//	PUT    /clusters/{key}   body = payload      -> 204 | 415 (format refused)
//	GET    /clusters/{key}                       -> 200 body = payload | 404
//	DELETE /clusters/{key}                       -> 204 | 404
//	GET    /clusters                             -> 200 JSON ["key", ...]
//	GET    /stats                                -> 200 JSON Stats
//	POST   /batch            body = JSON keys    -> 200 JSON {key: base64, ...}
//	POST   /leases/{key}?ttl=30s                 -> 204 | 404 | 501 (no leases)
//
// /batch serves several keys in one round trip; missing keys are omitted
// from the response map. /leases renews
// the lease on one replica key when the donor runs lease GC. Both answer
// 404/501 on donors predating them, which the Client turns into the per-key
// fallback and ErrLeaseUnsupported respectively.
//
// A payload's wire format rides in the Content-Type header: the XML fallback
// is application/xml (also assumed when the header is absent, which is what
// pre-negotiation peers send); every other format is
// application/x-obiswap-<format>. The Stats JSON advertises the formats the
// donor accepts; a PUT in a format the donor refuses answers 415 and stores
// nothing.

// contentTypePrefix prefixes non-XML wire formats on the HTTP bridge.
const contentTypePrefix = "application/x-obiswap-"

// formatContentType maps a wire format to its Content-Type value.
func formatContentType(format string) string {
	if format == "" || format == FormatXML {
		return "application/xml"
	}
	return contentTypePrefix + format
}

// contentTypeFormat maps a Content-Type header back to a wire format.
func contentTypeFormat(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	if strings.HasPrefix(ct, contentTypePrefix) {
		return strings.TrimPrefix(ct, contentTypePrefix)
	}
	return FormatXML
}

// Handler adapts a Store to HTTP.
type Handler struct {
	s Store
}

var _ http.Handler = (*Handler)(nil)

// NewHandler returns an HTTP handler serving s.
func NewHandler(s Store) *Handler { return &Handler{s: s} }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		st, err := h.s.Stats(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, st)
	case r.URL.Path == "/clusters" && r.Method == http.MethodGet:
		keys, err := h.s.Keys(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if keys == nil {
			keys = []string{}
		}
		writeJSON(w, keys)
	case r.URL.Path == "/batch" && r.Method == http.MethodPost:
		var keys []string
		if err := json.NewDecoder(r.Body).Decode(&keys); err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		got, err := GetMulti(r.Context(), h.s, keys)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if got == nil {
			got = map[string][]byte{}
		}
		writeJSON(w, got)
	case strings.HasPrefix(r.URL.Path, "/leases/") && r.Method == http.MethodPost:
		key, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/leases/"))
		if err != nil || key == "" {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		l, ok := h.s.(Leaser)
		if !ok {
			http.Error(w, "leases unsupported", http.StatusNotImplemented)
			return
		}
		var ttl time.Duration
		if raw := r.URL.Query().Get("ttl"); raw != "" {
			if ttl, err = time.ParseDuration(raw); err != nil {
				http.Error(w, "bad ttl: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if err := l.RenewLease(r.Context(), key, ttl); err != nil {
			if errors.Is(err, ErrNotFound) {
				http.NotFound(w, r)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case strings.HasPrefix(r.URL.Path, "/clusters/"):
		rawKey := strings.TrimPrefix(r.URL.Path, "/clusters/")
		key, err := url.PathUnescape(rawKey)
		if err != nil || key == "" {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h.serveKey(w, r, key)
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) serveKey(w http.ResponseWriter, r *http.Request, key string) {
	switch r.Method {
	case http.MethodPut:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts := PutOpts{Format: contentTypeFormat(r.Header.Get("Content-Type"))}
		if err := PutWith(r.Context(), h.s, key, data, opts); err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrCapacity):
				status = http.StatusInsufficientStorage
			case errors.Is(err, ErrUnsupportedFormat):
				status = http.StatusUnsupportedMediaType
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		data, opts, err := GetWith(r.Context(), h.s, key)
		if errors.Is(err, ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", formatContentType(opts.Format))
		_, _ = w.Write(data)
	case http.MethodDelete:
		err := h.s.Drop(r.Context(), key)
		if errors.Is(err, ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client is a Store talking to a remote Handler.
type Client struct {
	base string
	hc   *http.Client
}

var (
	_ Store       = (*Client)(nil)
	_ Envelope    = (*Client)(nil)
	_ MultiGetter = (*Client)(nil)
	_ Leaser      = (*Client)(nil)
)

// NewClient returns a store client for the device at baseURL
// (e.g. "http://192.168.0.7:9980").
func NewClient(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) keyURL(key string) string {
	return c.base + "/clusters/" + url.PathEscape(key)
}

// setTrace stamps the request with the swap trace ID carried by its context
// (X-Obiswap-Trace), so the serving device can correlate its access log and
// flight recorder with the requesting device's span.
func setTrace(req *http.Request) {
	if id := obs.TraceFrom(req.Context()); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
}

// Put stores data under key on the remote device with the XML-fallback
// envelope.
func (c *Client) Put(ctx context.Context, key string, data []byte) error {
	return c.PutEnvelope(ctx, key, data, PutOpts{})
}

// PutEnvelope stores data under key on the remote device, carrying the wire
// format as the request Content-Type. A 415 answer (donor refuses the
// format) surfaces as ErrUnsupportedFormat.
func (c *Client) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	// The transport may still be writing the request body after Do has
	// returned (a donor that answers before reading it all), so the request
	// gets its own copy: data is the caller's again when this returns.
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(key), bytes.NewReader(bytes.Clone(data)))
	if err != nil {
		return fmt.Errorf("store: http: %w", err)
	}
	req.Header.Set("Content-Type", formatContentType(opts.Format))
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusInsufficientStorage:
		return fmt.Errorf("%w: remote device full", ErrCapacity)
	case http.StatusUnsupportedMediaType:
		return fmt.Errorf("%w: %q refused by remote device", ErrUnsupportedFormat, opts.Format)
	default:
		return fmt.Errorf("store: http put: status %d", resp.StatusCode)
	}
}

// Get returns the payload stored under key on the remote device.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	data, _, err := c.GetEnvelope(ctx, key)
	return data, err
}

// GetEnvelope returns the payload and the wire format the remote device
// serves it with (from the response Content-Type).
func (c *Client) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(key), nil)
	if err != nil {
		return nil, PutOpts{}, fmt.Errorf("store: http: %w", err)
	}
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, PutOpts{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, PutOpts{}, fmt.Errorf("store: http get: %w", err)
		}
		return data, PutOpts{Format: contentTypeFormat(resp.Header.Get("Content-Type"))}, nil
	case http.StatusNotFound:
		return nil, PutOpts{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	default:
		return nil, PutOpts{}, fmt.Errorf("store: http get: status %d", resp.StatusCode)
	}
}

// GetMulti fetches several keys in one POST /batch round trip. A donor
// predating the endpoint answers 404 or 405; the client then falls back to
// sequential per-key Gets, so batching degrades instead of failing. Missing
// keys are omitted from the result map.
func (c *Client) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	body, err := json.Marshal(keys)
	if err != nil {
		return nil, fmt.Errorf("store: http batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/batch", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("store: http: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var got map[string][]byte
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			return nil, fmt.Errorf("store: http batch: %w", err)
		}
		if got == nil {
			got = map[string][]byte{}
		}
		return got, nil
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		// Legacy donor: per-key fallback, not-found keys omitted.
		out := make(map[string][]byte, len(keys))
		for _, key := range keys {
			data, err := c.Get(ctx, key)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				return nil, err
			}
			out[key] = data
		}
		return out, nil
	default:
		return nil, fmt.Errorf("store: http batch: status %d", resp.StatusCode)
	}
}

// RenewLease extends the lease on key via POST /leases/{key}. Donors that
// run no lease GC (501, or pre-lease servers answering 404 for the whole
// /leases namespace on an unknown key) report ErrLeaseUnsupported or
// ErrNotFound; callers treat ErrLeaseUnsupported as "nothing to renew".
func (c *Client) RenewLease(ctx context.Context, key string, ttl time.Duration) error {
	u := c.base + "/leases/" + url.PathEscape(key)
	if ttl > 0 {
		u += "?ttl=" + url.QueryEscape(ttl.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return fmt.Errorf("store: http: %w", err)
	}
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	case http.StatusNotImplemented, http.StatusMethodNotAllowed:
		return fmt.Errorf("%w: %s", ErrLeaseUnsupported, c.base)
	default:
		return fmt.Errorf("store: http lease: status %d", resp.StatusCode)
	}
}

// Drop removes the payload stored under key on the remote device.
func (c *Client) Drop(ctx context.Context, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.keyURL(key), nil)
	if err != nil {
		return fmt.Errorf("store: http: %w", err)
	}
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	default:
		return fmt.Errorf("store: http delete: status %d", resp.StatusCode)
	}
}

// Keys enumerates remote keys.
func (c *Client) Keys(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/clusters", nil)
	if err != nil {
		return nil, fmt.Errorf("store: http: %w", err)
	}
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("store: http keys: status %d", resp.StatusCode)
	}
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, fmt.Errorf("store: http keys: %w", err)
	}
	return keys, nil
}

// Stats reports remote occupancy.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return Stats{}, fmt.Errorf("store: http: %w", err)
	}
	setTrace(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return Stats{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("store: http stats: status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Stats{}, fmt.Errorf("store: http stats: %w", err)
	}
	return st, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
