package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	un "repro"
	"repro/internal/bench"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
)

// ipsec-mtu: the paper's Table-1 IPsec graph (native flavor, synchronous
// datapath) under 1500-byte frames over 64 flows, bursts of 32 alternating
// encapsulation (LAN->WAN) and decapsulation (WAN->LAN).
const (
	burstSize      = 32
	ipsecFlows     = 64
	ipsecFrameSize = 1500
	ipsecSPI       = 4096
	// ipsecChunk is the number of encap/decap burst pairs per timed
	// stretch; the peer SA encrypts the next chunk's ESP frames between
	// stretches, outside the window.
	ipsecChunk = 16
	// ipsecKey, ipsecLocal and ipsecRemote are the Table-1 SA of
	// bench.IPsecGraph; the peer SA mirrors it.
	ipsecKey    = "000102030405060708090a0b0c0d0e0f10111213"
	ipsecLocal  = "192.0.2.1"
	ipsecRemote = "203.0.113.9"
)

// ipsecRig is one set-up of the ipsec-mtu workload.
type ipsecRig struct {
	node     *un.Node
	lan, wan *netdev.Port
	flows    [][]byte // cleartext frames, one per flow
	peer     *nf.SA   // the remote tunnel end, encrypting WAN->LAN frames
	seq      *flowSeq
	sink     syncSink
	chunk    ipsecChunkData // reused by every prepare
}

// syncSink checks and times frames delivered by the synchronous datapath:
// delivery happens inside SendBatch, on the sender's goroutine, so it needs
// no locking.
type syncSink struct {
	sentAt time.Time
	// expect holds, for a decap burst, the cleartext IP packet each
	// delivered frame must carry, in send order; nil for an encap burst.
	expect [][]byte
	got    int
	bad    int64
	// hist and dir, when non-nil, record each frame's latency: the
	// pass's histogram and the burst direction's.
	hist, dir *latencyHist
}

func (s *syncSink) frame(f netdev.Frame) {
	if s.hist != nil {
		lat := int64(time.Since(s.sentAt))
		s.hist.add(lat)
		s.dir.add(lat)
	}
	if s.expect == nil {
		if !isESP(f.Data, ipsecSPI) {
			s.bad++
		}
	} else if s.got >= len(s.expect) || !bytes.Equal(f.Data[pkt.EthernetHeaderLen:], s.expect[s.got]) {
		s.bad++
	}
	s.got++
	pkt.PutBuffer(f.Data)
}

func (s *syncSink) batch(fs []netdev.Frame) {
	for _, f := range fs {
		s.frame(f)
	}
}

// isESP reports whether an Ethernet frame carries an IPv4 ESP packet with
// the given SPI.
func isESP(d []byte, spi uint32) bool {
	const ip = pkt.EthernetHeaderLen
	if len(d) < ip+pkt.IPv4HeaderLen+pkt.ESPHeaderLen {
		return false
	}
	if binary.BigEndian.Uint16(d[12:14]) != uint16(pkt.EthernetTypeIPv4) || d[ip+9] != byte(pkt.IPProtocolESP) {
		return false
	}
	ihl := int(d[ip]&0x0f) * 4
	return binary.BigEndian.Uint32(d[ip+ihl:]) == spi
}

func newPeerSA() (*nf.SA, error) {
	key, err := nf.ParseSAKey(ipsecKey)
	if err != nil {
		return nil, err
	}
	return nf.NewSA(ipsecSPI, pkt.MustAddr(ipsecRemote), pkt.MustAddr(ipsecLocal), key)
}

// espFrame is what the remote tunnel end sends for a cleartext frame.
func espFrame(peer *nf.SA, clear []byte) ([]byte, error) {
	outer, err := peer.Encapsulate(clear[pkt.EthernetHeaderLen:])
	if err != nil {
		return nil, err
	}
	return pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{
			SrcMAC:       pkt.MAC{2, 0, 0, 0, 0xee, 0x02},
			DstMAC:       pkt.MAC{2, 0, 0, 0, 0xee, 0x01},
			EthernetType: pkt.EthernetTypeIPv4,
		}, pkt.Payload(outer))
}

func setupIPsec(seed int64, ph *setupPhases) (*ipsecRig, error) {
	t0 := time.Now()
	node, err := un.NewNode(un.Config{Name: "ipsec-mtu"})
	if err != nil {
		return nil, err
	}
	ph.nodeBuild = time.Since(t0)
	t1 := time.Now()
	rig := &ipsecRig{node: node}
	if err := rig.init(seed); err != nil {
		node.Close()
		return nil, err
	}
	ph.deploy = time.Since(t1)
	return rig, nil
}

func (r *ipsecRig) init(seed int64) error {
	if err := r.node.Deploy(bench.IPsecGraph("t1", un.TechNative)); err != nil {
		return err
	}
	r.lan, _ = r.node.InterfacePort("eth0")
	r.wan, _ = r.node.InterfacePort("eth1")
	flows, err := udpFrames(seed, ipsecFlows, ipsecFrameSize, pkt.Addr{10, 200, 0, 1})
	if err != nil {
		return err
	}
	r.flows = flows
	if r.peer, err = newPeerSA(); err != nil {
		return err
	}
	r.seq = newUniformSeq(seed, ipsecFlows)
	r.wan.SetHandler(r.sink.frame)
	r.wan.SetBatchHandler(r.sink.batch)
	r.lan.SetHandler(r.sink.frame)
	r.lan.SetBatchHandler(r.sink.batch)
	// Warm-up: four generator chunks, outputs checked like the timed ones.
	var tally ipsecTally
	warm := newUniformSeq(seed+1, ipsecFlows)
	for i := 0; i < 4; i++ {
		if err := r.prepare(warm); err != nil {
			return err
		}
		if err := r.sendChunk(&r.chunk, &tally, nil, nil); err != nil {
			return err
		}
	}
	if tally.bad+tally.lost > 0 {
		return fmt.Errorf("ipsec warm-up: %d wrong and %d lost frames", tally.bad, tally.lost)
	}
	return nil
}

func (r *ipsecRig) close() { r.node.Close() }

// ipsecChunkData is one generator chunk: per burst pair, the encap
// flows and the decap ESP frames with the cleartext each must decrypt to.
type ipsecChunkData struct {
	enc    [ipsecChunk][burstSize]netdev.Frame
	dec    [ipsecChunk][burstSize]netdev.Frame
	expect [ipsecChunk][burstSize][]byte
}

// prepare draws the next chunk's flows into r.chunk and encrypts its ESP
// frames. It allocates, so it runs outside the timed window.
func (r *ipsecRig) prepare(seq *flowSeq) error {
	c := &r.chunk
	for p := 0; p < ipsecChunk; p++ {
		for i := 0; i < burstSize; i++ {
			c.enc[p][i] = netdev.Frame{Data: r.flows[seq.next()]}
			clear := r.flows[seq.next()]
			esp, err := espFrame(r.peer, clear)
			if err != nil {
				return err
			}
			c.dec[p][i] = netdev.Frame{Data: esp}
			c.expect[p][i] = clear[pkt.EthernetHeaderLen:]
		}
	}
	return nil
}

// ipsecTally counts a pass's traffic, split by direction.
type ipsecTally struct {
	encDelivered, decDelivered int64
	encVirtual, decVirtual     time.Duration
	sent, bad, lost            int64
}

// sendChunk sends a prepared chunk, alternating encap and decap bursts.
// With a pass, latencies go into its histograms, overall and per
// direction.
func (r *ipsecRig) sendChunk(c *ipsecChunkData, t *ipsecTally, w *window, p *ipsecPass) error {
	for i := 0; i < ipsecChunk; i++ {
		var hist, enc, dec *latencyHist
		if p != nil {
			hist, enc, dec = &p.lat, &p.enc, &p.dec
		}
		if err := r.sendBurst(r.lan, c.enc[i][:], nil, t, hist, enc); err != nil {
			return err
		}
		if err := r.sendBurst(r.wan, c.dec[i][:], c.expect[i][:], t, hist, dec); err != nil {
			return err
		}
		if w != nil && i%8 == 0 {
			w.sampleHeap()
		}
	}
	return nil
}

// sendBurst sends one burst and tallies what the egress port delivered.
// expect is nil for an encap burst. The burst's virtual-clock charge is
// booked to its direction: the datapath is synchronous, so everything
// charged during SendBatch belongs to this burst.
func (r *ipsecRig) sendBurst(port *netdev.Port, burst []netdev.Frame, expect [][]byte, t *ipsecTally, hist, dir *latencyHist) error {
	for i := range burst {
		burst[i].Hops = 0
	}
	clock := r.node.Clock()
	r.sink.expect, r.sink.got, r.sink.bad, r.sink.hist, r.sink.dir = expect, 0, 0, hist, dir
	v0 := clock.Now()
	r.sink.sentAt = time.Now()
	_, err := port.SendBatch(burst)
	v := clock.Now() - v0
	r.sink.hist, r.sink.dir = nil, nil
	if err != nil {
		return fmt.Errorf("ipsec send: %w", err)
	}
	got := int64(r.sink.got)
	if expect == nil {
		t.encDelivered += got
		t.encVirtual += v
	} else {
		t.decDelivered += got
		t.decVirtual += v
	}
	t.sent += int64(len(burst))
	t.bad += r.sink.bad
	if got < int64(len(burst)) {
		t.lost += int64(len(burst)) - got
	}
	return nil
}

// goodputMbps is the virtual-clock goodput of one direction, counting
// delivered frames at their injected 1500-byte size — the figure
// BenchmarkTable1Throughput and BenchmarkTable1ThroughputDecap report as
// Mbps-sim.
func goodputMbps(frames int64, virtual time.Duration) float64 {
	if virtual <= 0 {
		return 0
	}
	return float64(frames) * ipsecFrameSize * 8 / virtual.Seconds() / 1e6
}

// ipsecPass is one timed run of the closed loop. lat holds every frame's
// latency, enc and dec those of one direction.
type ipsecPass struct {
	tally         ipsecTally
	win           *window
	lat, enc, dec latencyHist
}

func newIPsecPass() *ipsecPass { return &ipsecPass{win: newWindow()} }

// run drives the loop for d of timed window, adding to p. The peer SA
// encrypts each chunk between stretches, outside the window.
func (r *ipsecRig) run(p *ipsecPass, d time.Duration) error {
	for timed := time.Duration(0); timed < d; {
		if err := r.prepare(r.seq); err != nil {
			return err
		}
		p.win.begin()
		err := r.sendChunk(&r.chunk, &p.tally, p.win, p)
		p.win.tick(p.tally.encDelivered + p.tally.decDelivered)
		timed += p.win.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// check applies the workload's correctness checks to a pass.
func (p *ipsecPass) check() error {
	t := p.tally
	if t.bad > 0 {
		return fmt.Errorf("%d frames failed the output check (ESP SPI %d on encap, cleartext equality on decap)", t.bad, ipsecSPI)
	}
	want := bench.PaperTable1["Native NF"].Mbps
	for _, d := range []struct {
		name    string
		frames  int64
		virtual time.Duration
	}{{"encap", t.encDelivered, t.encVirtual}, {"decap", t.decDelivered, t.decVirtual}} {
		if got := goodputMbps(d.frames, d.virtual); math.Round(got) != want {
			return fmt.Errorf("%s virtual-clock goodput %.2f Mbps, Table 1 native reports %.0f", d.name, got, want)
		}
	}
	return nil
}

func buildIPsec(seed int64) func(*setupPhases) (*ipsecRig, error) {
	return func(ph *setupPhases) (*ipsecRig, error) { return setupIPsec(seed, ph) }
}

// ipsecEndToEnd runs the untraced measurement.
func ipsecEndToEnd(opts runOpts) (*outcome, error) {
	p := newIPsecPass()
	setup, err := rotate(buildIPsec(opts.seed), func(_ int, r *ipsecRig) error { return r.run(p, opts.slice()) })
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.attempted, o.failed = p.tally.sent, p.tally.lost
	if err := p.check(); err != nil {
		o.fail(err)
	}
	if err := o.endToEnd(setup.median, &p.lat, p.win, p.tally.encDelivered+p.tally.decDelivered); err != nil {
		return nil, err
	}
	return o, nil
}

func ipsecTraced(opts runOpts) (*outcome, error) {
	o := newOutcome()
	setup, err := rotate(buildIPsec(opts.seed), func(i int, r *ipsecRig) error {
		if i < setupRepeats-1 {
			return nil
		}
		return ipsecTrace(o, r, opts)
	})
	if err != nil {
		return nil, err
	}
	o.reportSetup(setup)
	return o, nil
}

// ipsecTrace runs the traced measurement on one set-up: untraced and
// traced passes in turn, then the layers in isolation. On the synchronous
// datapath a traced pass differs from an untraced one only by the node's
// /metrics scrapes around it.
func ipsecTrace(o *outcome, rig *ipsecRig, opts runOpts) error {
	p0, p1 := newIPsecPass(), newIPsecPass()
	grew := nodeCounters{}
	for round := 0; round < traceRounds; round++ {
		if err := rig.run(p0, opts.tracePass()); err != nil {
			return err
		}
		before, _, err := scrapeNode(rig.node)
		if err != nil {
			return err
		}
		if err := rig.run(p1, opts.tracePass()); err != nil {
			return err
		}
		after, _, err := scrapeNode(rig.node)
		if err != nil {
			return err
		}
		grew.addGrowth(before, after)
	}
	o.attempted = p0.tally.sent + p1.tally.sent
	o.failed = p0.tally.lost + p1.tally.lost
	for _, p := range []*ipsecPass{p0, p1} {
		if err := p.check(); err != nil {
			o.fail(err)
		}
	}
	frames0 := p0.tally.encDelivered + p0.tally.decDelivered
	frames := p1.tally.encDelivered + p1.tally.decDelivered
	if frames0 == 0 || frames == 0 {
		return fmt.Errorf("no frame delivered")
	}
	if err := o.latencyQuantiles(&p0.lat); err != nil {
		return err
	}
	reportCounters(o, grew, frames, 1, 0)
	o.vals["go.gc_cpu_share"] = p1.win.gcShare()
	o.vals["go.gc_ns"] = p1.win.gcBackgroundNs(frames)
	for name, h := range map[string]*latencyHist{"dp.encap_latency_p50_us": &p1.enc, "dp.decap_latency_p50_us": &p1.dec} {
		v, err := mustQuantile(h, 0.5)
		if err != nil {
			return err
		}
		o.vals[name] = v / 1e3
	}

	layers, err := ipsecLayers(opts.seed)
	if err != nil {
		return err
	}
	sum := layers.report(o)
	layerSum(o, sum, float64(p0.win.cpu)/float64(frames0), float64(p1.win.cpu)/float64(frames))
	return nil
}

// ipsecLayerPairs is how many encap/decap burst pairs the isolated layer
// timing pushes through each layer.
const ipsecLayerPairs = 256

// ipsecLayers times each data-plane layer in isolation on ipsec-mtu frames
// from a flow sequence the timed passes did not use. The standalone IPsec
// NF holds the Table-1 SA; a fresh peer SA encrypts its decap input.
func ipsecLayers(seed int64) (*dpLayers, error) {
	flows, err := udpFrames(seed, ipsecFlows, ipsecFrameSize, pkt.Addr{10, 200, 0, 1})
	if err != nil {
		return nil, err
	}
	cfg := map[string]string{"local": ipsecLocal, "remote": ipsecRemote, "spi": fmt.Sprint(ipsecSPI), "key": ipsecKey}
	encap, err := buildNF("nf.ipsec_encap", "ipsec", cfg, nf.IPsecPortPlain, decodeEthernet, serializeEncap)
	if err != nil {
		return nil, err
	}
	decap := &nfLayer{metric: "nf.ipsec_decap", proc: encap.proc, inPort: nf.IPsecPortEncrypted, decode: decodeESP, serializes: serializeDecap}
	peer, err := newPeerSA()
	if err != nil {
		return nil, err
	}
	env, err := newStandaloneEnv()
	if err != nil {
		return nil, err
	}
	mem := newMemReader()
	seq := newUniformSeq(seed+2, ipsecFlows)
	enc, dec, warm := new(nfCost), new(nfCost), new(nfCost)
	var bursts [][]netdev.Frame
	for p := -8; p < ipsecLayerPairs; p++ {
		clear := make([][]byte, burstSize)
		esp := make([][]byte, burstSize)
		for i := range clear {
			clear[i] = flows[seq.next()]
			if esp[i], err = espFrame(peer, flows[seq.next()]); err != nil {
				return nil, err
			}
		}
		ce, cd := enc, dec
		if p < 0 { // warm-up pairs
			ce, cd = warm, warm
		}
		if _, err := runNF(encap, ce, env, mem, clear); err != nil {
			return nil, err
		}
		if _, err := runNF(decap, cd, env, mem, esp); err != nil {
			return nil, err
		}
		if p >= 0 {
			eb, db := make([]netdev.Frame, burstSize), make([]netdev.Frame, burstSize)
			for i := range eb {
				eb[i], db[i] = netdev.Frame{Data: clear[i]}, netdev.Frame{Data: esp[i]}
			}
			bursts = append(bursts, eb, db)
		}
	}
	d := &dpLayers{
		frames: 2 * ipsecLayerPairs * burstSize,
		nfs:    []*nfCost{enc, dec},
		names:  []string{encap.metric, decap.metric},
	}
	d.hopNs = hopCost(bursts)
	if d.switchNs, err = switchCost(bursts, 4, d.hopNs); err != nil {
		return nil, err
	}
	return d, nil
}
