package cluster

import (
	"encoding/hex"
	"encoding/json"
	"net/http"

	"repro/internal/core"
	"repro/internal/store"
)

// RingInfo is the GET /v1/peer/ring response body: the static
// membership a node was configured with. Peers exchange it to detect
// configuration drift — a fleet is only a consistent cache when every
// member derives ownership from the same list.
type RingInfo struct {
	// Self is the responding node's own member name (its -advertise
	// address).
	Self string `json:"self"`
	// Members is the full sorted member list of the node's ring.
	Members []string `json:"members"`
	// VNodes is the virtual-node count per member.
	VNodes int `json:"vnodes"`
}

// RegisterPeerRoutes mounts the peer protocol on mux:
//
//	GET /v1/peer/record?key=<64-hex>&kind=<step|traj|verdict|rendered>
//	GET /v1/peer/ring
//
// The record endpoint replies 200 with the complete framed record
// bytes (application/octet-stream) from src's RawRecord on a hit, 404
// on a miss — including when the local copy exists but fails
// validation, so a node never ships bytes that were damaged on its own
// disk, and when src is nil (a member with no local records) — and 400
// for a malformed key or kind. The ring endpoint replies with info as
// JSON. The protocol is read-only by construction: peers exchange
// cache contents, never commands.
func RegisterPeerRoutes(mux *http.ServeMux, info RingInfo, src store.Source) {
	mux.HandleFunc("GET /v1/peer/record", func(w http.ResponseWriter, r *http.Request) {
		key, kindOK := parseRecordQuery(r)
		kind, ok := store.KindByExt(r.URL.Query().Get("kind"))
		if !kindOK || !ok {
			http.Error(w, "bad key or kind", http.StatusBadRequest)
			return
		}
		if src == nil {
			http.NotFound(w, r)
			return
		}
		frame, ok, err := src.RawRecord(kind, key)
		if err != nil || !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(frame)
	})
	mux.HandleFunc("GET /v1/peer/ring", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// RingInfo is a closed struct of strings and ints; marshaling
		// cannot fail.
		body, _ := json.Marshal(info)
		_, _ = w.Write(body)
	})
}

// parseRecordQuery extracts the record key from a peer request; ok is
// false unless the key is exactly 64 hex digits.
func parseRecordQuery(r *http.Request) (core.StableFingerprint, bool) {
	var key core.StableFingerprint
	raw := r.URL.Query().Get("key")
	if len(raw) != 2*len(key) {
		return key, false
	}
	if _, err := hex.Decode(key[:], []byte(raw)); err != nil {
		return key, false
	}
	return key, true
}
