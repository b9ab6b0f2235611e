package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MaxRequestBody caps the accepted request-body size (1 MiB):
// problems are small text descriptions, and the cap keeps a single
// client from holding request memory hostage.
const MaxRequestBody = 1 << 20

// Handler returns the service's HTTP API over the engine:
//
//	POST /v1/speedup   one or more full speedup steps, or the half step
//	POST /v1/fixpoint  classified trajectory, streamed as NDJSON
//	POST /v1/verify    brute-force oracle verdict / conformance report
//	GET  /v1/catalog   the paper's problem catalog
//
// Success bodies are deterministic functions of the query — identical
// whether served cold or from the warm store. Failures carry
// `{"error": "..."}` with the status from StatusOf; a negative verify
// outcome (decided UNSOLVABLE, failed conformance) is 409 with the
// full verdict body. The fixpoint stream reports failures occurring
// after streaming began as a final `{"error": "..."}` line, since the
// 200 header is already on the wire.
//
// Handler serves the query endpoints only; Routes adds GET /metrics
// and GET /v1/stats plus the instrumented middleware — that is what
// cmd/serve mounts.
func Handler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	registerQueryRoutes(mux, e, nil)
	return mux
}

// registerQueryRoutes mounts the four query endpoints on mux,
// recording stream volume into m (nil = unobserved). Metrics are never
// consulted when rendering a body.
func registerQueryRoutes(mux *http.ServeMux, e *Engine, m *Metrics) {
	mux.HandleFunc("POST /v1/speedup", func(w http.ResponseWriter, r *http.Request) {
		var req SpeedupRequest
		if err := readJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		resp, err := e.Speedup(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/fixpoint", func(w http.ResponseWriter, r *http.Request) {
		var req FixpointRequest
		if err := readJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		// Warm fast path: a body any warm tier can supply whole is
		// served fully buffered — one Write, with a Content-Length —
		// instead of through the streaming machinery. The bytes are the
		// same either way.
		body, miss, err := e.lookupFixpoint(req)
		if err != nil {
			writeError(w, err)
			return
		}
		if miss == nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			m.streamedBody(body)
			return
		}
		streaming := false
		// ResponseController unwraps middleware wrappers (obs.Wrap's
		// Unwrap chain), so flushing works through any depth of
		// logging/metrics middleware — a plain w.(http.Flusher)
		// assertion would fail on the first wrapper that hides it.
		rc := http.NewResponseController(w)
		err = e.fixpointCold(r.Context(), miss, func(line []byte) error {
			if !streaming {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				streaming = true
			}
			if _, werr := w.Write(line); werr != nil {
				return werr
			}
			m.streamedLine(len(line))
			_ = rc.Flush() // ErrNotSupported = non-streaming transport; lines still arrive at the end
			return nil
		})
		switch {
		case err == nil:
		case !streaming:
			writeError(w, err)
		default:
			// Mid-stream failure: the status is already committed, so
			// the error travels as the final NDJSON line.
			line := append(mustMarshal(map[string]string{"error": err.Error()}), '\n')
			_, _ = w.Write(line)
			m.streamedLine(len(line))
		}
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req VerifyRequest
		if err := readJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		// The per-request ceilings are an HTTP-service concern: the
		// engine itself stays uncapped for the batch CLIs.
		if req.Rounds != nil && *req.Rounds > MaxVerifyRounds {
			writeError(w, badRequest("rounds must be <= %d, got %d", MaxVerifyRounds, *req.Rounds))
			return
		}
		if req.MaxN != nil && *req.MaxN > MaxVerifyN {
			writeError(w, badRequest("n must be <= %d, got %d", MaxVerifyN, *req.MaxN))
			return
		}
		resp, err := e.Verify(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		status := http.StatusOK
		if resp.Negative {
			status = http.StatusConflict
		}
		w.Header().Set("Content-Type", "application/json")
		// The reply is fully buffered, so its length is known before
		// the header goes out.
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)+1))
		w.WriteHeader(status)
		// resp.Body is shared across subscribers and cache hits — it
		// must never be appended to (the spare capacity race); the
		// newline goes out as its own write.
		_, _ = w.Write(resp.Body)
		_, _ = io.WriteString(w, "\n")
	})
	mux.HandleFunc("GET /v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Catalog())
	})
}

// readJSON decodes a size-capped JSON request body, rejecting trailing
// garbage; an oversized body maps to 413, other failures to 400.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			// The decode error must not masquerade as malformed JSON:
			// the body was cut off by the size cap, which is the
			// client's 413, not a 400.
			return &StatusError{
				Code: http.StatusRequestEntityTooLarge,
				Err:  fmt.Errorf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return badRequest("request body: %v", err)
	}
	if dec.More() {
		return badRequest("request body: trailing content after the JSON object")
	}
	return nil
}

// writeJSON serves a marshaled body with a trailing newline (curl
// friendliness; part of the byte-identity contract, applied uniformly).
// The body is staged in full — through a pooled buffer, with the
// encoder's output byte-identical to json.Marshal plus newline —
// before any byte reaches the wire: a marshal failure degrades to a
// clean error envelope, never a half-written 200, and success replies
// carry an exact Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := getBuf()
	defer putBuf(b)
	if err := b.enc.Encode(v); err != nil {
		writeError(w, fmt.Errorf("render response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
}

// writeError serves the error envelope under StatusOf's mapping, fully
// staged like writeJSON: the envelope is rendered before the header is
// written (an unmarshalable envelope — impossible for the closed
// struct, but guarded anyway — degrades to http.Error), so clients
// never see a half-written error body.
func writeError(w http.ResponseWriter, err error) {
	var payload = struct {
		Error string `json:"error"`
	}{Error: err.Error()}
	b := getBuf()
	defer putBuf(b)
	if merr := b.enc.Encode(payload); merr != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(StatusOf(err))
	_, _ = w.Write(b.buf.Bytes())
}

// mustMarshal marshals a value that cannot fail (closed map/struct
// types only).
func mustMarshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: marshal: %v", err))
	}
	return data
}
