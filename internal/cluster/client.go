package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// DefaultPeerTimeout is the per-peer request budget used when a caller
// does not choose one. It bounds how long a warm lookup may wait on
// the network before degrading to local computation — small, because a
// peer hit is only worth having when it beats recomputing.
const DefaultPeerTimeout = 500 * time.Millisecond

// maxPeerRecordBytes caps how much of a peer's record response the
// client will read. Real records are at most a few megabytes of JSON;
// the cap keeps a byzantine peer from streaming unbounded garbage into
// memory before frame validation rejects it.
const maxPeerRecordBytes = 32 << 20

// Client fetches records and ring membership from peers over the peer
// protocol. A Client is safe for concurrent use and holds a shared
// connection pool; create one per process, not per lookup.
type Client struct {
	hc http.Client
}

// NewClient returns a peer-protocol client whose requests are bounded
// by timeout (<= 0 selects DefaultPeerTimeout). The timeout applies
// per request, on top of whatever context the caller passes.
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &Client{hc: http.Client{Timeout: timeout}}
}

// FetchRecord asks peer (a host:port address) for the framed record
// under (kind, key). It returns (frame, true, nil) on a hit and
// (nil, false, nil) on a clean miss (404). Every other outcome —
// connection failure, timeout, unexpected status, oversized response —
// is an error; the caller counts it against the peer and degrades to
// local computation. The returned frame is raw wire bytes: the caller
// MUST read it through store.FrameSource and a typed getter, which
// validate the frame and the payload's embedded input before a single
// byte is trusted.
func (c *Client) FetchRecord(ctx context.Context, peer string, kind store.Kind, key core.StableFingerprint) ([]byte, bool, error) {
	u := fmt.Sprintf("http://%s/v1/peer/record?key=%s&kind=%s", peer, key.String(), url.QueryEscape(kind.Ext()))
	body, status, err := c.get(ctx, u)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case http.StatusOK:
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: peer %s: unexpected status %d", peer, status)
	}
}

// Ring asks peer for its RingInfo — the membership it was configured
// with — for drift detection and harness conformance checks.
func (c *Client) Ring(ctx context.Context, peer string) (RingInfo, error) {
	body, status, err := c.get(ctx, fmt.Sprintf("http://%s/v1/peer/ring", peer))
	if err != nil {
		return RingInfo{}, err
	}
	if status != http.StatusOK {
		return RingInfo{}, fmt.Errorf("cluster: peer %s: unexpected status %d", peer, status)
	}
	var info RingInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return RingInfo{}, fmt.Errorf("cluster: peer %s: bad ring body: %w", peer, err)
	}
	return info, nil
}

// get performs one bounded GET and returns the (size-capped) body and
// status. The body is always drained so the connection can be reused.
func (c *Client) get(ctx context.Context, u string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerRecordBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if len(body) > maxPeerRecordBytes {
		return nil, 0, fmt.Errorf("cluster: response exceeds %d bytes", maxPeerRecordBytes)
	}
	return body, resp.StatusCode, nil
}
