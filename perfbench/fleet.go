package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
	"repro/internal/rest"
)

// fleet-ops: the HA control plane as un-global runs it. Three global
// replicas (HTTP cluster transport, default lease and heartbeat) each
// behind rest.GlobalServer on loopback; three Universal Nodes behind their
// REST handlers, reached through global.HTTPNode; one closed-loop client
// cycling tenant chains through create, placement, scale, update, status
// and delete on the leader.
const (
	fleetTenants  = 8
	fleetResident = 4
	// fleetHeapCycles is how many client cycles into each set-up's slice
	// the live heap is sampled. The control plane's heap grows with the
	// requests it has served, so sampling at fixed request counts, not for
	// the whole slice, keeps heap_live_mb from tracking how fast the host
	// let the run go.
	fleetHeapCycles = 150
	// parentHeader carries the span id of the RPC that caused a handler
	// span, from the benchmark's RoundTripper to its handler wrapper.
	parentHeader = "X-Perfbench-Parent"
)

// fleetNodes is the n1-n2-n3 line. Each node offers only some NNFs, so a
// firewall -> nat -> monitor -> router chain cannot fit one node: the
// firewall only runs on n1 and the router only on n3.
var fleetNodes = []struct {
	name   string
	ifaces []string
	caps   []string
}{
	{"n1", []string{"lan", "x12"}, []string{"nnf:firewall", "docker"}},
	{"n2", []string{"x12", "x23"}, []string{"docker", "nnf:monitor"}},
	{"n3", []string{"x23", "wan"}, []string{"nnf:monitor", "nnf:router"}},
}

var fleetLinks = []global.Link{
	{A: "n1", AIf: "x12", B: "n2", BIf: "x12"},
	{A: "n2", AIf: "x23", B: "n3", BIf: "x23"},
}

// chainNFs is the tenant chain (distinct NNF templates, see README) and
// updateNFs the chain the update shrinks it to.
var (
	chainNFs  = []string{"firewall", "nat", "monitor", "router"}
	updateNFs = []string{"nat", "monitor", "router"}
)

// tenantGraph builds one tenant's chain between the lan interface of n1
// and the wan interface of n3, on its own VLAN.
func tenantGraph(id string, templates []string, vlan uint16, natIP string, fwPort int) *nffg.Graph {
	g := &nffg.Graph{
		ID: id,
		Endpoints: []nffg.Endpoint{
			{ID: "lan", Type: nffg.EPVLAN, Interface: "lan", VLANID: vlan},
			{ID: "wan", Type: nffg.EPVLAN, Interface: "wan", VLANID: vlan},
		},
	}
	prev := nffg.EndpointRef("lan")
	for i, t := range templates {
		cfg := map[string]string{}
		switch t {
		case "nat":
			cfg["external_ip"] = natIP
		case "firewall":
			cfg["rules"] = fmt.Sprintf("drop proto=tcp dport=%d", fwPort)
		}
		tech := nffg.TechNative
		if t == "nat" {
			// Scaled to 2 replicas: a native NNF cannot hold two
			// instances in one graph (see README), a container can.
			tech = nffg.TechDocker
		}
		g.NFs = append(g.NFs, nffg.NF{
			ID: t, Name: t,
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               cfg,
		})
		g.Rules = append(g.Rules, nffg.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10, Match: nffg.RuleMatch{PortIn: prev},
			Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef(t, "0")}},
		})
		prev = nffg.NFPortRef(t, "1")
	}
	g.Rules = append(g.Rules, nffg.FlowRule{
		ID: "r-wan", Priority: 10, Match: nffg.RuleMatch{PortIn: prev},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("wan")}},
	})
	return g
}

// fleetTenant is one tenant's pre-built requests.
type fleetTenant struct {
	id                                  string
	create, update                      *nffg.Graph
	createBody, updateBody              []byte
	graphPath, placementPath, scalePath string
}

// fleetPlan is the seeded request sequence: per-tenant graphs (NAT
// address, firewall rule) and the order tenants cycle in.
type fleetPlan struct {
	tenants  []fleetTenant
	resident []*nffg.Graph
	order    []int
}

// fleetOrderLen is the length of the pre-drawn tenant order; the loop
// wraps around it.
const fleetOrderLen = 1 << 14

var scaleBody = []byte(`{"replicas":2}`)

func newFleetPlan(seed int64) (*fleetPlan, error) {
	r := rand.New(rand.NewSource(seed ^ 0xf1ee7))
	p := &fleetPlan{}
	for i := 0; i < fleetTenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		ip := fmt.Sprintf("198.51.100.%d", 1+r.Intn(250))
		port := 1 + r.Intn(65000)
		t := fleetTenant{
			id:            id,
			create:        tenantGraph(id, chainNFs, uint16(100+i), ip, port),
			update:        tenantGraph(id, updateNFs, uint16(100+i), ip, port),
			graphPath:     "/v1/graphs/" + id,
			placementPath: "/v1/graphs/" + id + "/placement",
			scalePath:     "/v1/graphs/" + id + "/nfs/nat/scale",
		}
		var err error
		if t.createBody, err = json.Marshal(t.create); err != nil {
			return nil, err
		}
		if t.updateBody, err = json.Marshal(t.update); err != nil {
			return nil, err
		}
		p.tenants = append(p.tenants, t)
	}
	for i := 0; i < fleetResident; i++ {
		p.resident = append(p.resident, tenantGraph(fmt.Sprintf("resident-%d", i), chainNFs,
			uint16(200+i), fmt.Sprintf("203.0.113.%d", 1+r.Intn(250)), 1+r.Intn(65000)))
	}
	// Rounds: every tenant once per round, in a fresh seeded order.
	for len(p.order) < fleetOrderLen {
		p.order = append(p.order, r.Perm(fleetTenants)...)
	}
	return p, nil
}

// fleetStep is one request of the per-tenant cycle.
type fleetStep struct {
	method   string
	mutation bool
	path     func(*fleetTenant) string
	body     func(*fleetTenant) []byte
}

var fleetCycle = []fleetStep{
	{"PUT", true, func(t *fleetTenant) string { return t.graphPath }, func(t *fleetTenant) []byte { return t.createBody }},
	{"GET", false, func(t *fleetTenant) string { return t.placementPath }, nil},
	{"POST", true, func(t *fleetTenant) string { return t.scalePath }, func(*fleetTenant) []byte { return scaleBody }},
	{"PUT", true, func(t *fleetTenant) string { return t.graphPath }, func(t *fleetTenant) []byte { return t.updateBody }},
	{"GET", false, func(*fleetTenant) string { return "/v1/status" }, nil},
	{"DELETE", true, func(t *fleetTenant) string { return t.graphPath }, nil},
}

// replica is one global-orchestrator replica of the fleet.
type replica struct {
	id   string
	orch *global.Orchestrator
	clu  *cluster.Cluster
	srv  *http.Server
	addr string
	// inflight and inflightReq name the client request this replica's
	// REST handler is serving (span id and request id) while tracing; node
	// and cluster RPCs that start meanwhile are charged to it.
	inflight, inflightReq atomic.Uint64
}

// fleetRig is one set-up of the fleet-ops workload.
type fleetRig struct {
	plan       *fleetPlan
	nodes      []*un.Node
	nodeSrv    []*http.Server
	nodeURLs   []string
	replicas   []*replica
	leader     *replica
	client     *rawClient
	transports []*http.Transport
	trace      atomic.Pointer[spanLog]
	reqID      uint64
	cycle      int
}

func setupFleet(seed int64, ph *setupPhases) (*fleetRig, error) {
	plan, err := newFleetPlan(seed)
	if err != nil {
		return nil, err
	}
	r := &fleetRig{plan: plan}
	if err := r.init(ph); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

func (r *fleetRig) init(ph *setupPhases) error {
	t0 := time.Now()
	for _, spec := range fleetNodes {
		n, err := un.NewNode(un.Config{Name: spec.name, Interfaces: spec.ifaces, Capabilities: spec.caps})
		if err != nil {
			return err
		}
		r.nodes = append(r.nodes, n)
		srv, addr, err := serve(r.traceHandler(nil, spanNodeHandler, n.Handler()))
		if err != nil {
			return err
		}
		r.nodeSrv = append(r.nodeSrv, srv)
		r.nodeURLs = append(r.nodeURLs, "http://"+addr)
	}
	ph.nodeBuild = time.Since(t0)

	t1 := time.Now()
	var peers []cluster.PeerSpec
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		id := fmt.Sprintf("r%d", i+1)
		peers = append(peers, cluster.PeerSpec{ID: id, Addr: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		rep := &replica{id: peers[i].ID, addr: ln.Addr().String(), orch: global.New(global.Config{})}
		// The clients un-global builds, with the benchmark's RoundTripper
		// underneath: 5 s for node calls, 2 s for peer RPCs.
		nodeClient := &http.Client{Timeout: 5 * time.Second, Transport: r.tracedTransport(rep, spanNodeRPC)}
		peerClient := &http.Client{Timeout: 2 * time.Second, Transport: r.tracedTransport(rep, spanClusterRPC)}
		resolver := func(name string, raw json.RawMessage) (global.Node, error) {
			var rec global.NodeRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, err
			}
			return global.NewHTTPNode(name, rec.URL, nodeClient), nil
		}
		clu, err := global.BuildHA(rep.orch, cluster.Options{
			ID: rep.id, ClusterID: "perfbench", Peers: peers,
			Transport: cluster.NewHTTPTransport(peers, peerClient),
		}, resolver)
		if err != nil {
			for _, unserved := range lns[i:] {
				unserved.Close()
			}
			return err
		}
		rep.clu = clu
		rep.orch.Start()
		gs := rest.NewGlobal(rep.orch, nodeClient)
		gs.EnableCluster(clu)
		clu.Start()
		rep.srv = &http.Server{Handler: r.traceHandler(rep, spanGlobalHandler, gs), ReadHeaderTimeout: 10 * time.Second}
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(rep.srv, ln)
		r.replicas = append(r.replicas, rep)
	}
	for r.leader == nil {
		if time.Since(t1) > 30*time.Second {
			return fmt.Errorf("no leader elected in 30 s")
		}
		for _, rep := range r.replicas {
			if rep.clu.IsLeader() {
				r.leader = rep
			}
		}
		time.Sleep(time.Millisecond)
	}
	ph.leader = time.Since(t1)

	t2 := time.Now()
	c, err := dialRaw(r.leader.addr)
	if err != nil {
		return err
	}
	r.client = c
	for i, spec := range fleetNodes {
		if err := r.must("POST", "/v1/nodes", rest.NodeRegistration{Name: spec.name, URL: r.nodeURLs[i]}); err != nil {
			return err
		}
	}
	for _, l := range fleetLinks {
		if err := r.must("POST", "/v1/links", l); err != nil {
			return err
		}
	}
	for _, g := range r.plan.resident {
		if err := r.must("PUT", "/v1/graphs/"+g.ID, g); err != nil {
			return err
		}
		if err := r.must("GET", "/v1/graphs/"+g.ID+"/placement", nil); err != nil {
			return err
		}
		if n := placementNodes(r.client.body); n < 2 {
			return fmt.Errorf("resident chain %s placed on %d node(s), want a split", g.ID, n)
		}
	}
	// Warm-up: one round of every tenant's cycle, checked.
	warm := newFleetPass()
	for i := 0; i < fleetTenants; i++ {
		r.runCycle(warm)
	}
	if warm.failed > 0 || warm.checkErr != nil {
		return fmt.Errorf("fleet warm-up: %d failed requests (%v): %v", warm.failed, warm.lastFail, warm.checkErr)
	}
	ph.deploy = time.Since(t2)
	return nil
}

// must sends a set-up request that has to succeed, with v as its JSON body
// (none when nil).
func (r *fleetRig) must(method, path string, v any) error {
	var body []byte
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		body = b
	}
	r.reqID++
	code, err := r.client.do(method, path, r.reqID, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(r.client.body))
	}
	return nil
}

func (r *fleetRig) close() {
	if r.client != nil {
		r.client.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, rep := range r.replicas {
		rep.clu.Close()
		rep.orch.Close()
	}
	for _, rep := range r.replicas {
		_ = rep.srv.Shutdown(ctx)
	}
	for i, srv := range r.nodeSrv {
		_ = srv.Shutdown(ctx)
		r.nodes[i].Close()
	}
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
}

// placementNodes counts the distinct nodes hosting the NFs of a GET
// .../placement reply, without allocating.
func placementNodes(body []byte) int {
	i := bytes.Index(body, []byte(`"nfs":{`))
	if i < 0 {
		return 0
	}
	nfs := body[i:]
	if j := bytes.IndexByte(nfs, '}'); j >= 0 {
		nfs = nfs[:j]
	}
	n := 0
	for _, name := range quotedNodeNames {
		if bytes.Contains(nfs, name) {
			n++
		}
	}
	return n
}

var quotedNodeNames = func() [][]byte {
	var out [][]byte
	for _, n := range fleetNodes {
		out = append(out, []byte(`:"`+n.name+`"`))
	}
	return out
}()

// fleetPass is one timed run of the client loop.
type fleetPass struct {
	win                 *window
	lat, mutation, read latencyHist
	attempted, failed   int64
	mutations, reads    int64
	lastFail            string
	checkErr            error
}

// runCycle sends one tenant's six requests.
func (r *fleetRig) runCycle(p *fleetPass) {
	t := &r.plan.tenants[r.plan.order[r.cycle%len(r.plan.order)]]
	r.cycle++
	for si := range fleetCycle {
		st := &fleetCycle[si]
		var body []byte
		if st.body != nil {
			body = st.body(t)
		}
		r.reqID++
		p.attempted++
		t0 := time.Now()
		code, err := r.client.do(st.method, st.path(t), r.reqID, body)
		lat := int64(time.Since(t0))
		if log := r.trace.Load(); log != nil {
			log.record(span{kind: spanClient, req: r.reqID, start: log.since(t0), end: log.since(t0) + lat, op: st.method + " " + st.path(t), ops: -1})
		}
		if err != nil || code/100 != 2 {
			p.failed++
			if p.lastFail == "" {
				p.lastFail = fmt.Sprintf("%s %s: HTTP %d %v %s", st.method, st.path(t), code, err, bytes.TrimSpace(r.client.body))
			}
			continue
		}
		p.lat.add(lat)
		if st.mutation {
			p.mutation.add(lat)
			p.mutations++
		} else {
			p.read.add(lat)
			p.reads++
		}
		if si == 1 && p.checkErr == nil {
			if n := placementNodes(r.client.body); n < 2 {
				p.checkErr = fmt.Errorf("tenant %s placed on %d node(s): a create must span at least 2", t.id, n)
			}
		}
	}
}

func newFleetPass() *fleetPass { return &fleetPass{win: newWindow()} }

// run drives the client loop for d, in whole cycles, adding to p.
func (r *fleetRig) run(p *fleetPass, d time.Duration) {
	p.win.begin()
	start := time.Now()
	for cycles := 0; time.Since(start) < d; cycles++ {
		r.runCycle(p)
		p.win.tick(p.mutations + p.reads)
		if cycles < fleetHeapCycles {
			p.win.sampleHeap()
		}
	}
	p.win.end()
}

// checkDeleted asserts, outside the window, that every tenant's graph is
// gone: the loop ends each cycle with a DELETE, so a GET must say 404.
func (r *fleetRig) checkDeleted() error {
	for i := range r.plan.tenants {
		t := &r.plan.tenants[i]
		r.reqID++
		code, err := r.client.do("GET", t.graphPath, r.reqID, nil)
		if err != nil {
			return err
		}
		if code != http.StatusNotFound {
			return fmt.Errorf("GET %s after its DELETE: HTTP %d, want 404", t.graphPath, code)
		}
	}
	return nil
}

func (p *fleetPass) check(o *outcome) {
	if p.failed > 0 {
		o.notes = append(o.notes, fmt.Sprintf("%d of %d requests failed; first: %s", p.failed, p.attempted, p.lastFail))
	}
	if p.checkErr != nil {
		o.fail(p.checkErr)
	}
}

func buildFleet(seed int64) func(*setupPhases) (*fleetRig, error) {
	return func(ph *setupPhases) (*fleetRig, error) { return setupFleet(seed, ph) }
}

func fleetEndToEnd(opts runOpts) (*outcome, error) {
	p := newFleetPass()
	o := newOutcome()
	setup, err := rotate(buildFleet(opts.seed), func(_ int, r *fleetRig) error {
		r.run(p, opts.slice())
		if err := r.checkDeleted(); err != nil {
			o.fail(err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = p.attempted, p.failed
	p.check(o)
	if err := o.endToEnd(setup.median, &p.lat, p.win, p.mutations+p.reads); err != nil {
		return nil, err
	}
	return o, nil
}

// traceHandler wraps a REST handler. While tracing it records a span per
// request: a client request on a global replica (spanGlobalHandler, which
// also marks the replica busy with it), a peer RPC on a replica
// (spanClusterHandler) or a node call on a node (spanNodeHandler).
func (r *fleetRig) traceHandler(rep *replica, kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		log := r.trace.Load()
		if log == nil {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		reqID, _ := strconv.ParseUint(req.Header.Get(reqIDHeader), 10, 64)
		parent, _ := strconv.ParseUint(req.Header.Get(parentHeader), 10, 64)
		k := kind
		if rep != nil && parent != 0 {
			k = spanClusterHandler
		}
		id := log.newID()
		client := rep != nil && parent == 0 && reqID != 0
		if client {
			rep.inflightReq.Store(reqID)
			rep.inflight.Store(id)
		}
		h.ServeHTTP(w, req)
		if client {
			rep.inflight.Store(0)
			rep.inflightReq.Store(0)
		}
		log.put(span{kind: k, id: id, parent: parent, req: reqID, start: log.since(start), end: log.since(time.Now()),
			op: req.Method + " " + req.URL.Path, ops: -1})
	})
}

// tracedRT is the RoundTripper under a replica's node and peer clients.
// While tracing it records a span per call, parented on the client
// request the replica is serving, and passes its id on in parentHeader.
type tracedRT struct {
	rig  *fleetRig
	rep  *replica
	kind spanKind
	next http.RoundTripper
}

func (r *fleetRig) tracedTransport(rep *replica, kind spanKind) http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	r.transports = append(r.transports, t)
	return &tracedRT{rig: r, rep: rep, kind: kind, next: t}
}

func (t *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	log := t.rig.trace.Load()
	if log == nil {
		return t.next.RoundTrip(req)
	}
	id := log.newID()
	parent, reqID := t.rep.inflight.Load(), t.rep.inflightReq.Load()
	out := req.Clone(req.Context())
	out.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	out.Header.Set(reqIDHeader, strconv.FormatUint(reqID, 10))
	s := span{kind: t.kind, id: id, parent: parent, req: reqID, op: req.Method + " " + req.URL.Path, bytes: req.ContentLength, ops: -1}
	if t.kind == spanClusterRPC && strings.HasSuffix(req.URL.Path, "/append") {
		s.ops = appendOps(req)
	}
	s.start = log.since(time.Now())
	resp, err := t.next.RoundTrip(out)
	s.end = log.since(time.Now())
	log.put(s)
	return resp, err
}

// appendOps counts the ops an AppendRequest carries (0 for a pure
// heartbeat), reading a copy of the body.
func appendOps(req *http.Request) int {
	if req.GetBody == nil {
		return -1
	}
	b, err := req.GetBody()
	if err != nil {
		return -1
	}
	defer b.Close()
	var ar cluster.AppendRequest
	if err := json.NewDecoder(b).Decode(&ar); err != nil {
		return -1
	}
	return len(ar.Ops)
}

// controlCounters is a scrape of the histograms the traced pass reads:
// the nodes' un_deploy_seconds and the leader's
// un_global_reconcile_seconds.
type controlCounters struct {
	deploySum, deployCount       float64
	reconcileSum, reconcileCount float64
}

func (r *fleetRig) scrapeControl() (controlCounters, error) {
	var c controlCounters
	for _, n := range r.nodes {
		var buf bytes.Buffer
		if err := n.WriteMetrics(&buf); err != nil {
			return c, err
		}
		p := parseProm(buf.Bytes())
		c.deploySum += p.sum("un_deploy_seconds_sum")
		c.deployCount += p.sum("un_deploy_seconds_count")
	}
	var buf bytes.Buffer
	if err := r.leader.orch.Metrics().WritePrometheus(&buf); err != nil {
		return c, err
	}
	p := parseProm(buf.Bytes())
	c.reconcileSum = p.sum("un_global_reconcile_seconds_sum")
	c.reconcileCount = p.sum("un_global_reconcile_seconds_count")
	return c, nil
}

// isolatedReps is how many times the traced run times PlanDeploy and
// Validate on each tenant's create graph.
const isolatedReps = 25

func fleetTraced(opts runOpts) (*outcome, error) {
	o := newOutcome()
	setup, err := rotate(buildFleet(opts.seed), func(i int, r *fleetRig) error {
		if i < setupRepeats-1 {
			return nil
		}
		return fleetTrace(o, r, opts)
	})
	if err != nil {
		return nil, err
	}
	o.reportSetup(setup)
	return o, nil
}

// fleetTrace runs the traced measurement on one set-up: an untraced pass,
// a traced one, then PlanDeploy and Validate in isolation.
func fleetTrace(o *outcome, rig *fleetRig, opts runOpts) error {
	p0, p1 := newFleetPass(), newFleetPass()
	rig.run(p0, opts.window()/2)
	if err := o.latencyQuantiles(&p0.lat); err != nil {
		return err
	}

	log := newSpanLog()
	before, err := rig.scrapeControl()
	if err != nil {
		return err
	}
	rig.trace.Store(log)
	traceStart := time.Now()
	rig.run(p1, opts.window()/2)
	traceWall := time.Since(traceStart)
	rig.trace.Store(nil)
	after, err := rig.scrapeControl()
	if err != nil {
		return err
	}
	o.attempted, o.failed = p0.attempted+p1.attempted, p0.failed+p1.failed
	p0.check(o)
	p1.check(o)
	if err := rig.checkDeleted(); err != nil {
		o.fail(err)
	}
	for name, q := range map[string]struct {
		h *latencyHist
		q float64
	}{
		"fleet.mutation_p50_ms": {&p1.mutation, 0.5}, "fleet.mutation_p90_ms": {&p1.mutation, 0.9},
		"fleet.read_p50_ms": {&p1.read, 0.5}, "fleet.read_p90_ms": {&p1.read, 0.9},
	} {
		v, err := mustQuantile(q.h, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		o.vals[name] = v / 1e6
	}
	if err := reportSpans(o, log.snapshot(), traceWall); err != nil {
		return err
	}
	o.vals["orchestrator.deploy_ms"] = 1e3 * ratio(after.deploySum-before.deploySum, after.deployCount-before.deployCount)
	o.vals["global.reconcile_ms"] = 1e3 * ratio(after.reconcileSum-before.reconcileSum, after.reconcileCount-before.reconcileCount)
	o.vals["global.reconcile_passes_per_s"] = (after.reconcileCount - before.reconcileCount) / traceWall.Seconds()

	// PlanDeploy and Validate in isolation, on the tenants' create graphs
	// (none deployed now: the loop deleted each).
	var plan, validate time.Duration
	var n int
	for rep := 0; rep < isolatedReps; rep++ {
		for i := range rig.plan.tenants {
			g := rig.plan.tenants[i].create
			t0 := time.Now()
			if err := g.Validate(); err != nil {
				return err
			}
			validate += time.Since(t0)
			t0 = time.Now()
			if _, err := rig.leader.orch.PlanDeploy(g); err != nil {
				return fmt.Errorf("PlanDeploy %s: %w", g.ID, err)
			}
			plan += time.Since(t0)
			n++
		}
	}
	o.vals["global.plan_ms"] = float64(plan) / float64(n) / 1e6
	o.vals["nffg.validate_ms"] = float64(validate) / float64(n) / 1e6
	return nil
}

// reportSpans derives the control-plane layer metrics from the traced
// pass's spans.
func reportSpans(o *outcome, spans []span, wall time.Duration) error {
	self := selfTimes(spans)
	byID := make(map[uint64]*span, len(spans))
	handlerOf := make(map[uint64]*span) // client request id -> leader handler span
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		if s.kind == spanGlobalHandler && s.req != 0 {
			handlerOf[s.req] = s
		}
	}
	isMutation := func(op string) bool { return !strings.HasPrefix(op, "GET ") }
	var (
		mutations, requests                   int
		handlerSelf, clientOverhead           int64
		nodeRPCs, appends, appendBytes, beats int64
		nodeRPCTime, appendTime, nodeHandler  int64
		byVerb                                = map[string]int64{}
	)
	mutationHandler := make(map[uint64]bool)
	for _, h := range handlerOf {
		requests++
		handlerSelf += self[h.id]
		if isMutation(h.op) {
			mutations++
			mutationHandler[h.id] = true
		}
	}
	var clients int64
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			if h := handlerOf[s.req]; h != nil {
				clientOverhead += (s.end - s.start) - (h.end - h.start)
				clients++
			}
		case spanNodeRPC:
			if mutationHandler[s.parent] {
				nodeRPCs++
				d := s.end - s.start
				nodeRPCTime += d
				verb, _, _ := strings.Cut(s.op, " ")
				byVerb[verb] += d
			}
		case spanNodeHandler:
			if p, ok := byID[s.parent]; ok && mutationHandler[p.parent] {
				nodeHandler += s.end - s.start
			}
		case spanClusterRPC:
			if !strings.HasSuffix(s.op, "/append") {
				continue
			}
			if s.ops == 0 {
				// A heartbeat: timer-driven, whatever the leader serves.
				beats++
				continue
			}
			if mutationHandler[s.parent] {
				appends++
				appendBytes += s.bytes
				appendTime += s.end - s.start
			}
		}
	}
	if mutations == 0 || requests == 0 {
		return fmt.Errorf("traced pass recorded no client request on the leader")
	}
	m := float64(mutations)
	o.vals["global.node_rpcs_per_mutation"] = float64(nodeRPCs) / m
	o.vals["global.node_rpc_ms_per_mutation"] = float64(nodeRPCTime) / m / 1e6
	for _, verb := range []string{"GET", "PUT", "POST", "DELETE"} {
		o.vals["global.node_rpc_ms_per_mutation."+verb] = float64(byVerb[verb]) / m / 1e6
	}
	o.vals["orchestrator.handler_ms"] = float64(nodeHandler) / m / 1e6
	o.vals["cluster.append_rpcs_per_mutation"] = float64(appends) / m
	o.vals["cluster.append_bytes_per_mutation"] = float64(appendBytes) / m
	o.vals["cluster.append_ms_per_mutation"] = float64(appendTime) / m / 1e6
	o.vals["cluster.heartbeat_rpcs_per_s"] = float64(beats) / wall.Seconds()
	o.vals["rest.global_handler_ms"] = float64(handlerSelf) / float64(requests) / 1e6
	o.vals["rest.client_overhead_ms"] = ratio(float64(clientOverhead), float64(clients)) / 1e6
	return nil
}
