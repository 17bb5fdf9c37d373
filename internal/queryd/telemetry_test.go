package queryd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"smartarrays/internal/obs"
)

// getPath GETs path through the handler and returns the body.
func getPath(t testing.TB, handler http.Handler, path string) string {
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Errorf("GET %s: status %d: %s", path, w.Code, w.Body)
	}
	return w.Body.String()
}

// servedProfile decodes /arrays and returns the named array's profile.
func servedProfile(t *testing.T, handler http.Handler, name string) obs.AccessProfile {
	t.Helper()
	var payload struct {
		Arrays []obs.AccessProfile `json:"arrays"`
	}
	if err := json.Unmarshal([]byte(getPath(t, handler, "/arrays")), &payload); err != nil {
		t.Fatal(err)
	}
	for _, p := range payload.Arrays {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("/arrays lists %d arrays, none named %q", len(payload.Arrays), name)
	return obs.AccessProfile{}
}

// TestServedArrayTelemetry: a server built by NewServer alone — the wiring
// saserve ships — profiles the arrays its queries touch. One predicated
// aggregate through Server.Handler() must show up on /arrays as predicate
// evaluations on the column it filters and on /metrics as that column's
// fold count, and neither endpoint may carry an access method nothing
// writes. Then several clients send the same aggregate while /arrays and
// /metrics are read: every executed reply (one not answered by an
// identical plan in flight) must add exactly the first query's
// evaluations — no fold lost or doubled under concurrent serving.
func TestServedArrayTelemetry(t *testing.T) {
	srv, _ := newTestServer(t, flightConfig())
	handler := srv.Handler()
	const body = `{"dataset":"demo","op":"aggregate","agg":"sum","column":"amount",` +
		`"where":[{"column":"region","op":"<","value":8}]}`

	serveQuery(t, handler, body)
	first := servedProfile(t, handler, "region")
	if first.Access.PredEvals == 0 {
		t.Fatalf("region profile has no predicate evaluations after a predicated aggregate: %+v", first)
	}
	metrics := getPath(t, handler, "/metrics")
	if !strings.Contains(metrics, `smartarrays_array_folds_total{array="region"}`) {
		t.Errorf("/metrics has no fold count for region:\n%s", metrics)
	}
	arrays := getPath(t, handler, "/arrays")
	for _, dead := range []string{`method="stream"`, `method="get"`} {
		if strings.Contains(metrics, dead) {
			t.Errorf("/metrics carries the unwritten %s series", dead)
		}
	}
	for _, dead := range []string{`"Streams"`, `"StreamElems"`, `"Gets"`, `"GetElems"`} {
		if strings.Contains(arrays, dead) {
			t.Errorf("/arrays carries the unwritten %s field", dead)
		}
	}

	const clients, perClient = 4, 12
	var executed, readers sync.WaitGroup
	var mu sync.Mutex
	runs := 0
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				getPath(t, handler, "/arrays")
				getPath(t, handler, "/metrics")
			}
		}
	}()
	for c := 0; c < clients; c++ {
		executed.Add(1)
		go func() {
			defer executed.Done()
			for i := 0; i < perClient; i++ {
				w := serveQuery(t, handler, body)
				if !strings.Contains(w.Body.String(), `"shared":true`) {
					mu.Lock()
					runs++
					mu.Unlock()
				}
			}
		}()
	}
	executed.Wait()
	close(stop)
	readers.Wait()

	last := servedProfile(t, handler, "region")
	if got, want := last.Access.PredEvals-first.Access.PredEvals, uint64(runs)*first.Access.PredEvals; got != want {
		t.Fatalf("%d executed queries added %d predicate evaluations, want %d (%d each)",
			runs, got, want, first.Access.PredEvals)
	}
	if last.Folds <= first.Folds {
		t.Fatalf("folds did not grow under concurrent serving: %d -> %d", first.Folds, last.Folds)
	}
}
