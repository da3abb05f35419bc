package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pkt"
)

// TestMetricNames checks every metric name against the pattern the
// benchmark contract sets (letters, digits, '_', '.', '-'; a letter or
// digit first; at most 64) and that the catalogue and BENCHMARK.json agree,
// name for name and unit for unit.
func TestMetricNames(t *testing.T) {
	pattern := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !pattern.MatchString(d.name) {
			t.Errorf("metric name %q breaks the naming rule", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		var got, want []string
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v, catalogue declares %v", c.name, got, want)
		}
	}
}

func TestReportRejectsUndeclaredAndMissing(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.name] = 1
	}
	if _, err := report(endToEnd, vals, true); err != nil {
		t.Fatalf("complete metrics: %v", err)
	}
	delete(vals, "setup_s")
	if _, err := report(endToEnd, vals, true); err == nil {
		t.Error("missing end-to-end metric was accepted")
	}
	vals["setup_s"] = 1
	vals["bogus"] = 1
	if _, err := report(endToEnd, vals, true); err == nil {
		t.Error("undeclared metric was accepted")
	}
}

// TestPercentileNeedsTenBeyond checks that a quantile is reported only
// when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		var h latencyHist
		for i := 0; i < c.n; i++ {
			h.add(int64(1000 + i))
		}
		if _, ok := h.quantile(c.q); ok != c.ok {
			t.Errorf("%d samples, p%g: reported=%v, want %v", c.n, c.q*100, ok, c.ok)
		}
	}

	var h latencyHist
	for i := 0; i < 50; i++ {
		h.add(1000)
	}
	o := newOutcome()
	w := newWindow()
	w.wall = time.Second
	if err := o.endToEnd(time.Second, &h, w, 50); err == nil {
		t.Error("an op rate was reported without a whole stretch")
	}
	w.rates = append(w.rates, 60, 40, 50)
	if err := o.endToEnd(time.Second, &h, w, 50); err != nil {
		t.Errorf("end-to-end metrics over 50 samples: %v", err)
	}
	if got := o.vals["ops_per_s"]; got != 50 {
		t.Errorf("ops_per_s of stretches at 60, 40 and 50/s = %v, want their median 50", got)
	}
	if got := o.vals["latency_mean_us"]; got != 1 {
		t.Errorf("latency_mean_us of 50x1000 ns = %v, want 1", got)
	}
	if err := o.latencyQuantiles(&h); err == nil {
		t.Error("tail latency was reported over 50 samples")
	}
	for i := 0; i < 1000; i++ {
		h.add(int64(1000 + i))
	}
	if err := o.latencyQuantiles(&h); err != nil {
		t.Errorf("p99 over 1050 samples: %v", err)
	}
	if p90 := o.vals["e2e.latency_p90_us"] * 1e3; p90 < 1880 || p90 > 1910 {
		t.Errorf("p90 of 50x1000 and 1000..1999 ns = %.1f, want ~1900 (bucket error < 0.6%%)", p90)
	}

	for _, c := range []struct {
		xs      []float64
		f, want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.25, 1.75}, {[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5, 1, 3}, 0.5, 3}, {[]float64{7}, 0.75, 7}, {nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.f); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.f, got, c.want)
		}
	}
}

// TestStretchesSpanSegments checks that a rate stretch counts only window
// time, across the gaps between segments, and that a tick opens the next
// stretch.
func TestStretchesSpanSegments(t *testing.T) {
	w := newWindow()
	w.begin()
	w.mark = w.mark.Add(-600 * time.Millisecond) // 0.6 s of window
	w.tick(10)
	w.end()
	if len(w.rates) != 0 {
		t.Fatalf("a stretch closed after 0.6 s of window: %v", w.rates)
	}
	time.Sleep(20 * time.Millisecond) // between segments: not window time
	w.begin()
	w.mark = w.mark.Add(-500 * time.Millisecond) // 1.1 s of window in all
	w.tick(33)
	if len(w.rates) != 1 || w.rates[0] > 30.01 || w.rates[0] < 29 {
		t.Fatalf("rates after 33 ops in 1.1 s of window = %v, want one near 30/s", w.rates)
	}
	w.tick(40)
	w.end()
	if len(w.rates) != 1 {
		t.Errorf("a stretch closed right after the last one: %v", w.rates)
	}
}

// TestSeedDeterminesSequences checks that a seed fixes the frames, the
// flow sequence and the control-plane request sequence, and that another
// seed changes them.
func TestSeedDeterminesSequences(t *testing.T) {
	draw := func(s *flowSeq) []int {
		out := make([]int, 4096)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, mk := range []func(int64) *flowSeq{
		func(seed int64) *flowSeq { return newZipfSeq(seed, cpeFlows, cpeZipfS) },
		func(seed int64) *flowSeq { return newUniformSeq(seed, ipsecFlows) },
	} {
		a, b, c := draw(mk(7)), draw(mk(7)), draw(mk(8))
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed, different flow sequence")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds, same flow sequence")
		}
	}

	f1, err := udpFrames(7, 64, cpeFrameSize, pkt.Addr{203, 0, 113, 50})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := udpFrames(7, 64, cpeFrameSize, pkt.Addr{203, 0, 113, 50})
	f3, _ := udpFrames(8, 64, cpeFrameSize, pkt.Addr{203, 0, 113, 50})
	if !reflect.DeepEqual(f1, f2) || reflect.DeepEqual(f1, f3) {
		t.Error("udpFrames is not a function of its seed alone")
	}

	requests := func(seed int64) string {
		p, err := newFleetPlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, ti := range p.order[:64] {
			tn := &p.tenants[ti]
			for _, st := range fleetCycle {
				fmt.Fprintf(&b, "%s %s ", st.method, st.path(tn))
				if st.body != nil {
					b.Write(st.body(tn))
				}
				b.WriteByte('\n')
			}
		}
		for _, g := range p.resident {
			body, _ := json.Marshal(g)
			b.Write(body)
		}
		return b.String()
	}
	if requests(7) != requests(7) {
		t.Error("same seed, different request sequence")
	}
	if requests(7) == requests(8) {
		t.Error("different seeds, same request sequence")
	}
}

func TestSelfTimesMergeOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},  // overlaps 2
		{id: 4, parent: 1, start: 90, end: 120}, // runs past the parent
		{id: 5, parent: 2, start: 15, end: 20},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 100-40-10 {
		t.Errorf("parent self time %d, want 50", got)
	}
	if got := self[2]; got != 25 {
		t.Errorf("child self time %d, want 25", got)
	}
}

func TestHeartbeatsAreNotBookedToMutations(t *testing.T) {
	spans := []span{
		{kind: spanClient, id: 1, req: 7, start: 0, end: 110, op: "PUT /v1/graphs/t", ops: -1},
		{kind: spanGlobalHandler, id: 2, req: 7, start: 5, end: 100, op: "PUT /v1/graphs/t", ops: -1},
		// One replication append and one heartbeat, both while the
		// mutation is served.
		{kind: spanClusterRPC, id: 3, parent: 2, req: 7, start: 10, end: 20, op: "POST /v1/cluster/rpc/append", bytes: 800, ops: 1},
		{kind: spanClusterRPC, id: 4, parent: 2, req: 7, start: 30, end: 35, op: "POST /v1/cluster/rpc/append", bytes: 90, ops: 0},
	}
	o := newOutcome()
	if err := reportSpans(o, spans, time.Second); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cluster.append_rpcs_per_mutation":  1,
		"cluster.append_bytes_per_mutation": 800,
		"cluster.heartbeat_rpcs_per_s":      1,
	} {
		if got := o.vals[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestLayerSumNeedsCoverage(t *testing.T) {
	for _, c := range []struct {
		sum, e2e, traced float64
		ok               bool
	}{
		{sum: 700, e2e: 1000, traced: 1000, ok: true},
		{sum: 100, e2e: 1000, traced: 1000, ok: false},  // layers miss 90%
		{sum: 1400, e2e: 1000, traced: 1000, ok: false}, // layers overcount
		{sum: 700, e2e: 1000, traced: 1400, ok: false},  // tracing overhead
	} {
		o := newOutcome()
		layerSum(o, c.sum, c.e2e, c.traced)
		if ok := o.checkErr == nil; ok != c.ok {
			t.Errorf("layers %g, untraced %g, traced %g ns: passed=%v, want %v (%v)", c.sum, c.e2e, c.traced, ok, c.ok, o.checkErr)
		}
	}
}

func TestPlacementNodes(t *testing.T) {
	for body, want := range map[string]int{
		`{"graph":"g","nfs":{"firewall":"n1","nat":"n2","router":"n3"},"endpoints":{"lan":"n1","wan":"n3"}}`: 3,
		`{"graph":"g","nfs":{"firewall":"n1","nat":"n1"},"endpoints":{"lan":"n1","wan":"n3"}}`:               1,
		`{"error":{"code":"not-found"}}`: 0,
	} {
		if got := placementNodes([]byte(body)); got != want {
			t.Errorf("placementNodes(%s) = %d, want %d", body, got, want)
		}
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm([]byte(`# HELP un_cache_hits_total Microflow-cache hits.
# TYPE un_cache_hits_total counter
un_cache_hits_total{lsi="lsi-0"} 12
un_cache_hits_total{lsi="g"} 30
un_deploy_seconds_sum 0.25
un_switch_worker_queue_depth{lsi="g",worker="0"} 7
`))
	if got := p.sum("un_cache_hits_total"); got != 42 {
		t.Errorf("sum = %v, want 42", got)
	}
	if got := p.sum("un_deploy_seconds_sum"); got != 0.25 {
		t.Errorf("sum = %v, want 0.25", got)
	}
	if got := p.max("un_switch_worker_queue_depth"); got != 7 {
		t.Errorf("max = %v, want 7", got)
	}
}

// TestRawClient drives the load generator's HTTP client against the
// standard library server: fixed-length and chunked replies, keep-alive,
// and the request-ID header.
func TestRawClient(t *testing.T) {
	var (
		mu  sync.Mutex
		ids []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(reqIDHeader))
		mu.Unlock()
		var body bytes.Buffer
		_, _ = body.ReadFrom(r.Body)
		switch r.URL.Path {
		case "/chunked":
			w.(http.Flusher).Flush() // forces chunked encoding
			fmt.Fprintf(w, "%s:%s", r.Method, strings.Repeat("x", 5000))
		case "/missing":
			http.NotFound(w, r)
		default:
			fmt.Fprintf(w, "%s:%s", r.Method, body.String())
		}
	}))
	defer srv.Close()
	c, err := dialRaw(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i, want := range []struct {
		method, path string
		body         []byte
		code         int
		reply        string
	}{
		{"PUT", "/echo", []byte(`{"a":1}`), 200, `PUT:{"a":1}`},
		{"GET", "/chunked", nil, 200, "GET:" + strings.Repeat("x", 5000)},
		{"DELETE", "/missing", nil, 404, "404 page not found\n"},
		{"POST", "/echo", []byte("z"), 200, "POST:z"},
	} {
		code, err := c.do(want.method, want.path, uint64(i+1), want.body)
		if err != nil {
			t.Fatalf("%s %s: %v", want.method, want.path, err)
		}
		if code != want.code || string(c.body) != want.reply {
			t.Errorf("%s %s = %d %q, want %d %q", want.method, want.path, code, c.body, want.code, want.reply)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(ids, []string{"1", "2", "3", "4"}) {
		t.Errorf("request IDs seen by the server: %v", ids)
	}
}

// TestRawClientDoesNotAllocate checks that the generator stays out of the
// allocation counters once its buffers have grown. The server is a canned
// loopback responder that allocates nothing per request either.
func TestRawClientDoesNotAllocate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		reply := []byte("HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{\"status\":\"ok\"}")
		for {
			length := 0
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if bytes.HasPrefix(line, []byte("Content-Length: ")) {
					length, _ = atoi(bytes.TrimSpace(line[16:]))
				}
				if len(line) == 2 {
					break
				}
			}
			if _, err := br.Discard(length); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	c, err := dialRaw(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"replicas":2}`)
	var id uint64
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if code, err := c.do("POST", "/v1/graphs/tenant-1/nfs/nat/scale", id, body); err != nil || code != 200 {
			t.Fatalf("HTTP %d %v", code, err)
		}
	})
	c.close()
	<-done
	if allocs != 0 {
		t.Errorf("%.1f allocations per request", allocs)
	}
}
