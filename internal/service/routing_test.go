package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/serial"
)

// routingReference is the GET /v1/routing reply as encoding/json writes it:
// the reference the cached body must match byte for byte.
func routingReference(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(struct {
		Epoch      uint64             `json:"epoch"`
		Congestion float64            `json:"congestion"`
		Routing    serial.RoutingJSON `json:"routing"`
	}{st.Epoch, st.Congestion, serial.RoutingToJSON(nil, st.Routing)})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	return resp.StatusCode, body
}

func routingEncodes(e *Engine) int64 { return e.Metrics().routingEncodes.Value() }

func TestRoutingBodyMatchesEncodingJSON(t *testing.T) {
	srv, e, ts := testServer(t, Config{Seed: 3}, "")
	if code, _ := postJSON(t, ts.URL+"/v1/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":2},{"u":3,"v":4,"amount":1},{"u":1,"v":6,"amount":0.3}]}`); code != http.StatusOK {
		t.Fatalf("demand: %d", code)
	}
	code, body := getBody(t, ts.URL+"/v1/routing")
	if want := routingReference(t, e.Active()); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("served body (%d):\n%s\nwant:\n%s", code, body, want)
	}

	path := graph.Path{Src: 5, Dst: 2, EdgeIDs: []int{4, 1}}
	for _, st := range []*State{
		{Epoch: 1, Routing: flow.New()},
		{Epoch: 7, Congestion: 1e-7, Routing: flow.Routing{{U: 2, V: 5}: {{Path: path, Weight: 2.5e-9}}}},
		{Epoch: math.MaxUint64, Congestion: 1e21, Routing: flow.Routing{{U: 2, V: 5}: {{Path: graph.Path{Src: 2, Dst: 5}, Weight: 0.1}}}},
	} {
		got, err := srv.routingBody(st)
		if err != nil {
			t.Fatal(err)
		}
		if want := routingReference(t, st); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d body:\n%s\nwant:\n%s", st.Epoch, got, want)
		}
	}
}

func TestRoutingBodyEncodedOncePerState(t *testing.T) {
	srv, e, ts := testServer(t, Config{Seed: 3}, "")
	for epoch, amount := range []string{"2", "3"} {
		if code, _ := postJSON(t, ts.URL+"/v1/demand?wait=1",
			`{"entries":[{"u":0,"v":7,"amount":`+amount+`},{"u":3,"v":4,"amount":1}]}`); code != http.StatusOK {
			t.Fatalf("demand: %d", code)
		}
		var first []byte
		for k := 0; k < 5; k++ {
			code, body := getBody(t, ts.URL+"/v1/routing")
			if code != http.StatusOK {
				t.Fatalf("routing: %d %s", code, body)
			}
			if k == 0 {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Fatalf("read %d of epoch %d differs from the first", k, epoch+1)
			}
		}
		if got, want := routingEncodes(e), int64(epoch+1); got != want {
			t.Fatalf("after 5 reads of epoch %d: routing_encodes %d, want %d", epoch+1, got, want)
		}
	}
	if _, vars := getJSON(t, ts.URL+"/debug/vars"); vars["routing_encodes"].(float64) != 2 {
		t.Fatalf("/debug/vars routing_encodes = %v, want 2", vars["routing_encodes"])
	}

	// A read that still holds a superseded state encodes it but leaves the
	// newer state's body cached.
	older, newer := &State{Epoch: 8, Routing: flow.New()}, &State{Epoch: 9, Routing: flow.New()}
	for _, st := range []*State{newer, older, newer} {
		if _, err := srv.routingBody(st); err != nil {
			t.Fatal(err)
		}
	}
	if got := routingEncodes(e); got != 4 {
		t.Fatalf("routing_encodes %d after reading epochs 9, 8, 9; want 4 (epoch 9 cached once)", got)
	}
}

// Reads racing POST epochs must each see one whole published state: the
// body decodes, and its epoch and congestion are those the epoch's outcome
// reported.
func TestRoutingReadsDuringEpochs(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 3}, "")
	const epochs = 30
	published := make(map[uint64]float64, epochs)
	post := func(i int) {
		code, resp := postJSON(t, ts.URL+"/v1/demand?wait=1",
			fmt.Sprintf(`{"entries":[{"u":0,"v":7,"amount":%d},{"u":%d,"v":%d,"amount":1.5}]}`, 1+i%4, i%4, 4+i%3))
		if code != http.StatusOK || resp["solved"] != true {
			t.Fatalf("demand %d: %d %v", i, code, resp)
		}
		published[uint64(resp["epoch"].(float64))] = resp["congestion"].(float64)
	}
	post(0)

	type read struct {
		epoch      uint64
		congestion float64
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	reads := make([][]read, 4)
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/routing")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("routing read: %d %v", resp.StatusCode, err)
					return
				}
				var env struct {
					Epoch      uint64          `json:"epoch"`
					Congestion float64         `json:"congestion"`
					Routing    json.RawMessage `json:"routing"`
				}
				if err := json.Unmarshal(body, &env); err != nil {
					t.Errorf("routing body does not decode: %v", err)
					return
				}
				if _, err := serial.DecodeRouting(bytes.NewReader(env.Routing), e.System().Graph()); err != nil {
					t.Errorf("epoch %d routing: %v", env.Epoch, err)
					return
				}
				reads[i] = append(reads[i], read{env.Epoch, env.Congestion})
			}
		}(i)
	}
	for i := 1; i < epochs; i++ {
		post(i)
	}
	close(done)
	wg.Wait()
	n := 0
	for _, rs := range reads {
		for _, r := range rs {
			cong, ok := published[r.epoch]
			if !ok || cong != r.congestion {
				t.Fatalf("read epoch %d congestion %v; published %v (%v)", r.epoch, r.congestion, cong, ok)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no routing read completed")
	}
	if enc := routingEncodes(e); enc > int64(n) {
		t.Fatalf("%d encodes for %d reads", enc, n)
	}
}

// A value encoding/json refuses must become a 500 with an error body, never
// a 200 status line over an empty or truncated body.
func TestNonFiniteReplyIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"congestion": math.NaN()})
	var out map[string]string
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out["error"] == "" {
		t.Fatalf("NaN reply: %d %q", rec.Code, rec.Body.String())
	}

	_, e, ts := testServer(t, Config{Seed: 3}, "")
	e.active.Store(&State{Epoch: 1, Congestion: math.NaN(), Routing: flow.New()})
	code, body := getBody(t, ts.URL+"/v1/routing")
	if code != http.StatusInternalServerError || json.Unmarshal(body, &out) != nil || out["error"] == "" {
		t.Fatalf("NaN congestion: %d %q", code, body)
	}
	e.active.Store(&State{Epoch: 2, Congestion: 1, Routing: flow.Routing{
		{U: 0, V: 1}: {{Path: graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{0}}, Weight: math.Inf(1)}},
	}})
	code, body = getBody(t, ts.URL+"/v1/routing")
	if code != http.StatusInternalServerError || json.Unmarshal(body, &out) != nil || out["error"] == "" {
		t.Fatalf("infinite weight: %d %q", code, body)
	}
}
