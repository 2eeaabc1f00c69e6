package e2e

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the harness made into a layer's public surface.
// Its name starts with the layer ("serve.submit", "replica.poll").
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Job is the index of the job the call served, -1 for calls that
	// serve no single job (a registry publish, a batch call).
	Job int `json:"job"`
	// Key links a call the router made to a replica (recorded by the
	// interposed proxy) to the routed call that caused it: both carry the
	// job's idempotency key (submits) or namespaced job id (polls).
	Key   string    `json:"key,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Layer is the span name's first component.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how an untraced run skips tracing.
type Tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Record stores a finished span; a zero ID is assigned a fresh one.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// LinkByKey makes each unparented keyed span a child of the latest-starting
// span with the same key, another name, and an interval that contains it:
// a replica call recorded by the proxy becomes the child of the routed
// call that caused it.
func LinkByKey(spans []Span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for _, idx := range byKey {
		for _, c := range idx {
			child := &spans[c]
			if child.Parent != 0 {
				continue
			}
			best := -1
			for _, p := range idx {
				par := spans[p]
				if p == c || par.Name == child.Name || par.Start.After(child.Start) || par.End.Before(child.End) {
					continue
				}
				if best < 0 || par.Start.After(spans[best].Start) {
					best = p
				}
			}
			if best >= 0 {
				child.Parent = spans[best].ID
			}
		}
	}
}

// SelfTimes returns each span's self time by id: its duration minus the
// part of its interval that its children cover (overlapping children
// count once, and a child reaching outside its parent counts only inside).
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to [start, end].
func covered(start, end time.Time, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// LayerSelfMS sums span self time per layer and divides it by jobs: the
// per-layer table of where a job's time went, as seen from the harness.
func LayerSelfMS(spans []Span, jobs int) map[string]float64 {
	out := map[string]float64{}
	if jobs <= 0 {
		return out
	}
	self := SelfTimes(spans)
	for _, s := range spans {
		out[s.Layer()] += ms(self[s.ID]) / float64(jobs)
	}
	return out
}

// selfMSByName collects the self times of every span with the given name.
func selfMSByName(spans []Span, self map[int64]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}

// JobTimeline is one job's life as its final status reports it, written
// next to the spans.
type JobTimeline struct {
	Job           int                `json:"job"`
	Dataset       string             `json:"dataset"`
	Origin        time.Time          `json:"origin"`
	SubmittedAt   time.Time          `json:"submitted_at,omitempty"`
	FinishedAt    time.Time          `json:"finished_at,omitempty"`
	LatencyMS     float64            `json:"latency_ms"`
	CorpusVersion int64              `json:"corpus_version,omitempty"`
	TimingsMS     map[string]float64 `json:"timings_ms,omitempty"`
	Error         string             `json:"error,omitempty"`
}

// WriteTrace writes the spans and the per-job timeline as JSON lines,
// each record tagged with its kind.
func WriteTrace(path string, spans []Span, timeline []JobTimeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			Span
		}{"span", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, j := range timeline {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			JobTimeline
		}{"job", j}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingProxy fronts one replica for the router and records a span per
// proxied job submit or poll, so a routed call's self time is what is
// left after the replica's share is taken out.
type timingProxy struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startTimingProxy(replica, target string, tr *Tracer) (*timingProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = &http.Transport{MaxIdleConnsPerHost: 16}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rp.ServeHTTP(w, r)
		end := time.Now()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			tr.Record(Span{Name: "replica.submit", Job: -1, Key: r.Header.Get("Idempotency-Key"), Start: start, End: end})
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			tr.Record(Span{Name: "replica.poll", Job: -1, Key: replica + "." + id, Start: start, End: end})
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &timingProxy{srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return p, nil
}

// close stops the proxy and waits for its server to return.
func (p *timingProxy) close() {
	p.srv.Close()
	<-p.done
}
