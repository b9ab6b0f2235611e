package obs

import "net/http"

// ResponseWriter wraps an http.ResponseWriter to capture the response
// status and byte count for middleware, while preserving the optional
// interface the service depends on, http.Flusher: Flush (and
// FlushError) delegate through http.ResponseController, which unwraps
// nested middleware via Unwrap — so NDJSON streaming keeps flushing
// line-by-line through any stack of wrapped handlers. (A naive wrapper
// struct would hide the underlying Flusher and silently batch the
// whole stream until the handler returned.)
//
// A ResponseWriter serves one request on one goroutine; it is not safe
// for concurrent use.
type ResponseWriter struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

// Wrap returns w instrumented for status and byte capture.
func Wrap(w http.ResponseWriter) *ResponseWriter {
	return &ResponseWriter{ResponseWriter: w}
}

// WriteHeader records the first status code and forwards every call.
func (w *ResponseWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write counts the payload bytes, recording an implicit 200 on the
// first write.
func (w *ResponseWriter) Write(b []byte) (int, error) {
	w.commit()
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// FlushError flushes buffered data to the client through
// http.ResponseController, which unwraps nested ResponseWriters via
// Unwrap. It returns http.ErrNotSupported when the underlying
// connection cannot flush.
func (w *ResponseWriter) FlushError() error {
	err := http.NewResponseController(w.ResponseWriter).Flush()
	if err == nil {
		w.commit()
	}
	return err
}

// Flush implements http.Flusher; flush failures are not reportable
// through that interface, use FlushError to observe them.
func (w *ResponseWriter) Flush() {
	_ = w.FlushError()
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// controllers built over an outer wrapper reach the real connection.
func (w *ResponseWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// commit records that the response header went (or is going) out with
// an implicit 200 if no explicit WriteHeader preceded it.
func (w *ResponseWriter) commit() {
	if !w.wroteHeader {
		w.status = http.StatusOK
		w.wroteHeader = true
	}
}

// Status returns the response status: the first explicitly written
// code, or 200 when the handler wrote (or will write) none.
func (w *ResponseWriter) Status() int {
	if !w.wroteHeader {
		return http.StatusOK
	}
	return w.status
}

// BytesWritten returns the number of response body bytes written.
func (w *ResponseWriter) BytesWritten() int64 { return w.bytes }
