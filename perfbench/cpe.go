package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	un "repro"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
)

// cpe-64b: a residential CPE chain (firewall -> nat -> monitor, native
// NNFs) on the ring/burst datapath (Workers: 1), 64-byte frames over 16384
// Zipf(1.1)-popular flows, a closed loop with at most cpeWindow bursts in
// flight.
const (
	cpeFlows     = 16384
	cpeFrameSize = 64
	cpeZipfS     = 1.1
	cpeWindow    = 4
	// cpeSlots frame buffers per burst position: a slot is rewritten only
	// after the burst that last used it has been delivered (the window
	// keeps at most cpeWindow in flight).
	cpeSlots = 2 * cpeWindow
	// cpeSample is how often the loop samples the live heap (and, in the
	// traced pass, the ring queue depth).
	cpeSample = 100 * time.Millisecond
	// cpeStall is how long the loop waits for a delivery before it
	// declares the outstanding frames lost.
	cpeStall = 2 * time.Second
	// cpeWarmBursts of Zipf traffic follow one pass over every flow in
	// set-up, so the NAT bindings, conntrack and caches are populated
	// before timing starts.
	cpeWarmBursts = 256
	natExternal   = "198.51.100.1"
	// stampOff is where the benchmark writes the burst number and the
	// frame's index in it: the UDP payload, which no NF of the chain
	// rewrites.
	stampOff = pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen
)

var cpeNFs = []struct{ id, template string }{{"fw", "firewall"}, {"nat", "nat"}, {"mon", "monitor"}}

func cpeConfig(template string) map[string]string {
	if template == "nat" {
		return map[string]string{"external_ip": natExternal}
	}
	return map[string]string{}
}

// cpeGraph chains the CPE NFs between eth0 (LAN) and eth1 (WAN), both
// directions.
func cpeGraph() *un.Graph {
	g := &un.Graph{
		ID: "cpe",
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
	}
	prev := un.EndpointRef("lan")
	for i, n := range cpeNFs {
		g.NFs = append(g.NFs, un.NF{
			ID: n.id, Name: n.template,
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: un.TechNative,
			Config:               cpeConfig(n.template),
		})
		g.Rules = append(g.Rules,
			un.FlowRule{ID: fmt.Sprintf("out%d", i), Priority: 10, Match: un.RuleMatch{PortIn: prev},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef(n.id, "0")}}},
			un.FlowRule{ID: fmt.Sprintf("in%d", i), Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef(n.id, "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: prev}}},
		)
		prev = un.NFPortRef(n.id, "1")
	}
	g.Rules = append(g.Rules,
		un.FlowRule{ID: "out-wan", Priority: 10, Match: un.RuleMatch{PortIn: prev},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
		un.FlowRule{ID: "in-wan", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("wan")},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: prev}}},
	)
	return g
}

// asyncSink checks and times frames the worker datapath delivers at the
// WAN port, on a datapath goroutine.
type asyncSink struct {
	ext       [4]byte
	delivered atomic.Uint64
	progress  chan struct{} // one token: "deliveries moved"

	mu     sync.Mutex
	sentAt [cpeSlots]time.Time
	hist   *latencyHist
	bad    int64
}

// take checks and times one delivered frame. Callers hold s.mu.
func (s *asyncSink) take(now time.Time, f netdev.Frame) {
	d := f.Data
	// Checked and timed, the frame's life is over: recycle it into the
	// frame pool as the repository's traffic sinks do.
	defer pkt.PutBuffer(d)
	if len(d) < stampOff+6 || [4]byte(d[26:30]) != s.ext {
		s.bad++
		return
	}
	slot := binary.BigEndian.Uint32(d[stampOff:]) % cpeSlots
	if s.hist != nil {
		s.hist.add(int64(now.Sub(s.sentAt[slot])))
	}
}

// delivered counts n more deliveries and wakes the generator.
func (s *asyncSink) moved(n int) {
	s.delivered.Add(uint64(n))
	select {
	case s.progress <- struct{}{}:
	default:
	}
}

func (s *asyncSink) batch(fs []netdev.Frame) {
	now := time.Now()
	s.mu.Lock()
	for _, f := range fs {
		s.take(now, f)
	}
	s.mu.Unlock()
	s.moved(len(fs))
}

func (s *asyncSink) frame(f netdev.Frame) {
	now := time.Now()
	s.mu.Lock()
	s.take(now, f)
	s.mu.Unlock()
	s.moved(1)
}

// cpeRig is one set-up of the cpe-64b workload.
type cpeRig struct {
	node      *un.Node
	lan, wan  *netdev.Port
	templates [][]byte
	nextFlow  func() int // the seeded Zipf flow sequence
	sink      *asyncSink
	stall     *time.Timer
	bufs      [cpeSlots][burstSize][]byte
	frames    [cpeSlots][burstSize]netdev.Frame
	bursts    uint32
	sent      uint64
}

func setupCPE(seed int64, ph *setupPhases) (*cpeRig, error) {
	t0 := time.Now()
	node, err := un.NewNode(un.Config{Name: "cpe-64b", Workers: 1})
	if err != nil {
		return nil, err
	}
	ph.nodeBuild = time.Since(t0)
	t1 := time.Now()
	r := &cpeRig{node: node}
	if err := r.init(seed); err != nil {
		r.close()
		return nil, err
	}
	ph.deploy = time.Since(t1)
	return r, nil
}

func (r *cpeRig) init(seed int64) error {
	if err := r.node.Deploy(cpeGraph()); err != nil {
		return err
	}
	r.lan, _ = r.node.InterfacePort("eth0")
	r.wan, _ = r.node.InterfacePort("eth1")
	tmpl, err := udpFrames(seed, cpeFlows, cpeFrameSize, pkt.Addr{203, 0, 113, 50})
	if err != nil {
		return err
	}
	r.templates = tmpl
	r.nextFlow = newZipfSeq(seed, cpeFlows, cpeZipfS).next
	r.sink = &asyncSink{ext: [4]byte(pkt.MustAddr(natExternal)), progress: make(chan struct{}, 1)}
	r.wan.SetHandler(r.sink.frame)
	r.wan.SetBatchHandler(r.sink.batch)
	r.stall = time.NewTimer(cpeStall)
	for s := range r.bufs {
		for i := range r.bufs[s] {
			r.bufs[s][i] = make([]byte, cpeFrameSize)
		}
	}
	// Warm-up: every flow once, then Zipf traffic.
	next := 0
	everyFlow := func() int { next++; return next - 1 }
	for b := 0; b < cpeFlows/burstSize; b++ {
		if err := r.window(cpeWindow - 1); err != nil {
			return err
		}
		if err := r.send(everyFlow); err != nil {
			return err
		}
	}
	for b := 0; b < cpeWarmBursts; b++ {
		if err := r.window(cpeWindow - 1); err != nil {
			return err
		}
		if err := r.send(r.nextFlow); err != nil {
			return err
		}
	}
	if err := r.window(0); err != nil {
		return err
	}
	if r.sink.bad > 0 {
		return fmt.Errorf("cpe warm-up: %d frames left the NAT without its external address", r.sink.bad)
	}
	return nil
}

func (r *cpeRig) close() {
	if r.stall != nil {
		r.stall.Stop()
	}
	r.node.Close()
}

// window blocks until at most bursts bursts are in flight.
func (r *cpeRig) window(bursts int) error {
	limit := uint64(bursts * burstSize)
	for r.sent-r.sink.delivered.Load() > limit {
		r.stall.Reset(cpeStall)
		select {
		case <-r.sink.progress:
		case <-r.stall.C:
			if r.sent-r.sink.delivered.Load() > limit {
				return errStall
			}
		}
	}
	return nil
}

var errStall = errors.New("no frame delivered for " + cpeStall.String() + " with frames in flight")

// send fills the next slot with flows drawn from next, stamps each frame
// with its burst number and index, and sends the burst.
func (r *cpeRig) send(next func() int) error {
	k := r.bursts
	r.bursts++
	slot := k % cpeSlots
	for i := range r.bufs[slot] {
		b := r.bufs[slot][i]
		copy(b, r.templates[next()])
		binary.BigEndian.PutUint32(b[stampOff:], k)
		binary.BigEndian.PutUint16(b[stampOff+4:], uint16(i))
		r.frames[slot][i] = netdev.Frame{Data: b}
	}
	r.sink.mu.Lock()
	r.sink.sentAt[slot] = time.Now()
	r.sink.mu.Unlock()
	n, err := r.lan.SendBatch(r.frames[slot][:])
	r.sent += uint64(n)
	if err != nil {
		return fmt.Errorf("cpe send: %w", err)
	}
	return nil
}

// cpePass is one timed run of the closed loop.
type cpePass struct {
	win       *window
	lat       latencyHist
	sent      uint64
	delivered uint64
	bad       int64
	lost      uint64
}

func newCPEPass() *cpePass { return &cpePass{win: newWindow()} }

// run drives the loop for d, adding to p. sample, when non-nil, runs every
// cpeSample (the traced pass scrapes queue depth there). A stall ends the
// run early and books the frames in flight as lost.
func (r *cpeRig) run(p *cpePass, d time.Duration, sample func()) error {
	s := r.sink
	s.mu.Lock()
	s.hist, s.bad = &p.lat, 0
	s.mu.Unlock()
	sent0, del0 := r.sent, s.delivered.Load()
	p.win.begin()
	start := time.Now()
	end := start.Add(d)
	lastSample := start
	var err error
	for {
		now := time.Now()
		if now.Sub(lastSample) >= cpeSample {
			lastSample = now
			p.win.sampleHeap()
			if sample != nil {
				sample()
			}
		}
		if !now.Before(end) {
			break
		}
		if err = r.window(cpeWindow - 1); err != nil {
			break
		}
		if err = r.send(r.nextFlow); err != nil {
			break
		}
		p.win.tick(int64(p.delivered + s.delivered.Load() - del0))
	}
	if err == nil {
		err = r.window(0)
	}
	p.win.end()
	s.mu.Lock()
	s.hist = nil
	p.bad += s.bad
	s.mu.Unlock()
	sent, delivered := r.sent-sent0, s.delivered.Load()-del0
	p.sent += sent
	p.delivered += delivered
	if err == errStall {
		p.lost += sent - delivered
		return nil
	}
	return err
}

// check applies the workload's correctness checks to a pass.
func (p *cpePass) check() error {
	if p.bad > 0 {
		return fmt.Errorf("%d frames left the NAT without external address %s", p.bad, natExternal)
	}
	if p.lost > 0 {
		return fmt.Errorf("%d of %d frames never reached the WAN port (window of %d bursts is below ring capacity, so this is loss)", p.lost, p.sent, cpeWindow)
	}
	return nil
}

func buildCPE(seed int64) func(*setupPhases) (*cpeRig, error) {
	return func(ph *setupPhases) (*cpeRig, error) { return setupCPE(seed, ph) }
}

func cpeEndToEnd(opts runOpts) (*outcome, error) {
	p := newCPEPass()
	setup, err := rotate(buildCPE(opts.seed), func(_ int, r *cpeRig) error { return r.run(p, opts.slice(), nil) })
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.attempted, o.failed = int64(p.sent), int64(p.lost)
	if err := p.check(); err != nil {
		o.fail(err)
	}
	if err := o.endToEnd(setup.median, &p.lat, p.win, int64(p.delivered)); err != nil {
		return nil, err
	}
	return o, nil
}

func cpeTraced(opts runOpts) (*outcome, error) {
	o := newOutcome()
	setup, err := rotate(buildCPE(opts.seed), func(i int, r *cpeRig) error {
		if i < setupRepeats-1 {
			return nil
		}
		return cpeTrace(o, r, opts)
	})
	if err != nil {
		return nil, err
	}
	o.reportSetup(setup)
	return o, nil
}

// cpeTrace runs the traced measurement on one set-up: untraced and traced
// passes in turn, then the layers in isolation.
func cpeTrace(o *outcome, rig *cpeRig, opts runOpts) error {
	var depthMax float64
	var scrapeErr error
	sample := func() {
		_, p, err := scrapeNode(rig.node)
		if err != nil {
			scrapeErr = err
			return
		}
		depthMax = max(depthMax, p.max("un_switch_worker_queue_depth"))
	}
	p0, p1 := newCPEPass(), newCPEPass()
	grew := nodeCounters{}
	for round := 0; round < traceRounds; round++ {
		if err := rig.run(p0, opts.tracePass(), nil); err != nil {
			return err
		}
		before, _, err := scrapeNode(rig.node)
		if err != nil {
			return err
		}
		if err := rig.run(p1, opts.tracePass(), sample); err != nil {
			return err
		}
		if scrapeErr != nil {
			return scrapeErr
		}
		after, _, err := scrapeNode(rig.node)
		if err != nil {
			return err
		}
		grew.addGrowth(before, after)
	}
	o.attempted = int64(p0.sent + p1.sent)
	o.failed = int64(p0.lost + p1.lost)
	for _, p := range []*cpePass{p0, p1} {
		if err := p.check(); err != nil {
			o.fail(err)
		}
	}
	if p0.delivered == 0 || p1.delivered == 0 {
		return fmt.Errorf("no frame delivered")
	}
	if err := o.latencyQuantiles(&p0.lat); err != nil {
		return err
	}
	frames := int64(p1.delivered)
	reportCounters(o, grew, frames, len(cpeNFs), depthMax)
	o.vals["go.gc_cpu_share"] = p1.win.gcShare()
	o.vals["go.gc_ns"] = p1.win.gcBackgroundNs(frames)

	layers, err := cpeLayers(opts.seed)
	if err != nil {
		return err
	}
	sum := layers.report(o)
	e2e := float64(p0.win.cpu) / float64(p0.delivered)
	traced := float64(p1.win.cpu) / float64(frames)
	layerSum(o, sum, e2e, traced)
	return nil
}

// cpeLayerBursts is how many bursts of the workload's frames the isolated
// layer timing pushes through each layer.
const cpeLayerBursts = 2048

// cpeLayers times each data-plane layer in isolation on the cpe-64b
// frames: the Zipf stream of a seed the timed passes did not use, after
// one untimed pass over every flow (the node was warmed the same way).
func cpeLayers(seed int64) (*dpLayers, error) {
	tmpl, err := udpFrames(seed, cpeFlows, cpeFrameSize, pkt.Addr{203, 0, 113, 50})
	if err != nil {
		return nil, err
	}
	chain := make([]*nfLayer, len(cpeNFs))
	for i, n := range cpeNFs {
		decode := decodePacket(pkt.NoCopy)
		var ser func(in, out []byte) []serializeCall
		if n.template == "nat" {
			decode, ser = decodePacket(pkt.Default), serializeNAT
		}
		if chain[i], err = buildNF("nf."+n.template, n.template, cpeConfig(n.template), nf.NATPortInside, decode, ser); err != nil {
			return nil, err
		}
	}
	env, err := newStandaloneEnv()
	if err != nil {
		return nil, err
	}
	mem := newMemReader()
	costs := make([]*nfCost, len(chain))
	warm := make([]*nfCost, len(chain))
	for i := range costs {
		costs[i], warm[i] = new(nfCost), new(nfCost)
	}
	push := func(in [][]byte, cs []*nfCost) error {
		for i, l := range chain {
			out, err := runNF(l, cs[i], env, mem, in)
			if err != nil {
				return err
			}
			in = out
		}
		return nil
	}
	for b := 0; b < cpeFlows/burstSize; b++ {
		if err := push(tmpl[b*burstSize:(b+1)*burstSize], warm); err != nil {
			return nil, err
		}
	}
	seq := newZipfSeq(seed+2, cpeFlows, cpeZipfS)
	bursts := make([][]netdev.Frame, cpeLayerBursts)
	for b := range bursts {
		in := make([][]byte, burstSize)
		bursts[b] = make([]netdev.Frame, burstSize)
		for i := range in {
			in[i] = tmpl[seq.next()]
			bursts[b][i] = netdev.Frame{Data: in[i]}
		}
		if err := push(in, costs); err != nil {
			return nil, err
		}
	}
	d := &dpLayers{nfs: costs, frames: cpeLayerBursts * burstSize}
	for _, l := range chain {
		d.names = append(d.names, l.metric)
	}
	d.hopNs = hopCost(bursts)
	if d.switchNs, err = switchCost(bursts, len(cpeGraph().Rules), d.hopNs); err != nil {
		return nil, err
	}
	return d, nil
}
