package serve

import (
	"encoding/json"
	"net/http"
	"time"
)

// BootHandler is the HTTP surface a daemon serves between binding its
// listener and finishing startup (dataset curation, WAL replay). It
// makes the not-yet-ready window observable instead of a connection
// refusal: GET /healthz answers 200 "booting" (the process is alive),
// GET /readyz and every other route answer a retryable 503 not_ready
// with a Retry-After hint. cmd/lsserved mounts it first and atomically
// swaps in Server.Handler once NewServer returns, which is what gives
// the router's prober a true readiness signal across a replica restart.
func BootHandler(retryAfter time.Duration) http.Handler {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	notReady := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", RetryAfterSeconds(retryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(ErrorResponse{
			Code:         CodeNotReady,
			Message:      "server is booting: datasets curating, write-ahead log replaying",
			Retryable:    true,
			RetryAfterMS: retryAfter.Milliseconds(),
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(HealthResponse{Status: "booting", Datasets: map[string]DatasetHealth{}})
	})
	mux.HandleFunc("/", notReady)
	return mux
}
