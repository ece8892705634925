package faults

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Middleware wraps a handler in the injector's fault schedule — the
// server side of chaos testing (geoserve -chaos). Exempt paths pass
// through without consuming a decision, so health and stats endpoints
// stay observable and the fault schedule stays aligned with the lookup
// traffic it is meant to disturb.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.exempt[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		d := in.Next()
		switch d.Kind {
		case KindLatency:
			in.sleep(d.Delay)
			next.ServeHTTP(w, r)
		case KindError:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(d.Status)
			fmt.Fprintf(w, `{"error":"chaos: injected %d"}`+"\n", d.Status)
		case KindRateLimit:
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(d.RetryAfter)))
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"chaos: injected throttle"}`+"\n")
		case KindReset:
			// net/http treats ErrAbortHandler as "kill the connection
			// without logging": the client sees a mid-request reset.
			panic(http.ErrAbortHandler)
		case KindTruncate:
			next.ServeHTTP(&truncateWriter{ResponseWriter: w, remaining: d.TruncateAt}, r)
		case KindSlowLoris:
			next.ServeHTTP(&dripWriter{
				ResponseWriter: w,
				chunk:          d.ChunkBytes,
				delay:          d.Delay,
				sleep:          in.sleep,
			}, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// retryAfterSeconds rounds a throttle hint up to the whole seconds the
// Retry-After header speaks.
func retryAfterSeconds(d time.Duration) int {
	return int((d + time.Second - 1) / time.Second)
}

// truncateWriter lets the first remaining body bytes through and
// silently swallows the rest, leaving the client an unparseable JSON
// stump with a clean HTTP framing around it.
type truncateWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *truncateWriter) Write(b []byte) (int, error) {
	if t.remaining <= 0 {
		// Report success so the wrapped handler keeps encoding; the
		// bytes just never reach the wire.
		return len(b), nil
	}
	n := len(b)
	if n > t.remaining {
		n = t.remaining
	}
	if _, err := t.ResponseWriter.Write(b[:n]); err != nil {
		return 0, err
	}
	t.remaining -= n
	return len(b), nil
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// so the server's per-request deadlines still reach the connection.
func (t *truncateWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// dripWriter forwards the response in small chunks with a pause between
// each — a slow-loris server.
type dripWriter struct {
	http.ResponseWriter
	chunk int
	delay time.Duration
	sleep func(time.Duration)
	wrote bool
}

func (d *dripWriter) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		if d.wrote {
			d.sleep(d.delay)
		}
		n := len(b)
		if n > d.chunk {
			n = d.chunk
		}
		m, err := d.ResponseWriter.Write(b[:n])
		total += m
		if err != nil {
			return total, err
		}
		if f, ok := d.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		d.wrote = true
		b = b[n:]
	}
	return total, nil
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// so the server's per-request deadlines still reach the connection.
func (d *dripWriter) Unwrap() http.ResponseWriter { return d.ResponseWriter }
