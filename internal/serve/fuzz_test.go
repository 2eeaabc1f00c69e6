package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"lucidscript"
	"lucidscript/internal/gen"
)

// FuzzSubmitHandler posts arbitrary bytes as the body of POST /v1/jobs.
// The handler must never panic and must answer 202 (accepted) or a 4xx:
// no body may reach a 5xx. Each input meets a fresh server, so a body's
// idempotency key is always new and a replay's 200 cannot occur.
func FuzzSubmitHandler(f *testing.F) {
	f.Add([]byte(`{"dataset":"gen","script":` + jsonString(gen.New(7).ScriptSource()) + `}`))
	f.Add([]byte(`{"dataset":"gen","script":"df = pd.read_csv(\"train.csv\")\n","options":{"timeout":"-1s"}}`))
	f.Add([]byte(`{"dataset":"nope","script":"x = 1\n","idempotency_key":"k"}`))
	f.Add([]byte(`{"dataset":"gen","script":"df = ((\n"}`))
	f.Add([]byte(`{"dataset":`))
	f.Add([]byte{})
	sys := genSystem(f, 42, genOptions())
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := NewServer(map[string]*lucidscript.System{"gen": sys}, Config{Workers: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("POST /v1/jobs answered %d: %s", rec.Code, rec.Body)
		}
		// An expired context cancels an accepted job at once; Shutdown
		// still waits for it to land.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Shutdown(ctx)
	})
}
