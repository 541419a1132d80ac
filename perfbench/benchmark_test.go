package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"

	"duet/internal/obs"
)

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json, which the runs are
// judged by, in step with the metrics the program prints.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []spec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, s := range printed {
			if declared[i].Name != s.name || declared[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json runs %v, the program knows %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("BENCHMARK.json runs %v, the program knows %v", names, want)
		}
	}
}

// TestHTTPConnKeepsAlive sends several requests over one connection and
// checks that each reaches the server whole, trace header included, and its
// reply comes back.
func TestHTTPConnKeepsAlive(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s [%s] %s", r.Method, r.URL.Path, r.Header.Get(obs.TraceHeader), body)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc, err := dialHTTP(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.conn.Close()
	for i, c := range []struct{ body, trace string }{
		{`{"query":"a=1"}`, ""}, {`{}`, "t-1"}, {`{"query":"a=1 AND b<2"}`, ""},
	} {
		status, reply, err := hc.post("/v1/estimate", []byte(c.body), c.trace)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := "POST /v1/estimate [" + c.trace + "] " + c.body; status != http.StatusOK || string(reply) != want {
			t.Errorf("request %d: got %d %q, want 200 %q", i, status, reply, want)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}
