package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"time"
)

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.NewResponseController, so
// streaming handlers (the /v2/events SSE stream) can still flush through
// the logging wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// recoveryMiddleware converts a handler panic into a 500 instead of
// tearing down the connection (and, under http.Server, the goroutine).
// http.ErrAbortHandler is re-raised: it is the sanctioned "kill this
// connection" signal — the chaos middleware's reset fault rides on it —
// and turning it into a tidy 500 would defeat its purpose.
func recoveryMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				// Headers may already be out; WriteHeader then is a no-op
				// warning at worst.
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "internal error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// deadlineMiddleware gives each request a deadline timeout from now, on
// its context and on the connection's reads and writes, and runs next on
// the caller's goroutine, so the answer streams as next writes it. A
// body read or answer write that outlives the deadline fails, and the
// server then closes the connection. The server clears both connection
// deadlines once the request is done, so a keep-alive connection starts
// its next request without them. A writer that reaches no connection (a
// test recorder) keeps only the context deadline.
func deadlineMiddleware(timeout time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(timeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// accessLogLevel maps a response status to the level its access-log line
// carries: plain requests are Info, client errors Warn, server errors
// Error. Running the logger with a Warn floor (geoserve -quiet) thus
// silences routine traffic while failures still log.
func accessLogLevel(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

// loggingMiddleware writes one structured line per request: method,
// path, status, duration — at a level keyed to the status class.
func loggingMiddleware(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		l.Log(r.Context(), accessLogLevel(rec.status), "request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur", time.Since(start).Round(time.Microsecond),
		)
	})
}
