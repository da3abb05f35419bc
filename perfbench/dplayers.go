package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	un "repro"
	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
	"repro/internal/vswitch"
)

// Data-plane layers are timed in isolation, on the workload's own frames,
// through each layer's public entry point: a netdev.Veth hop, a standalone
// vswitch carrying the node LSI's flow-table shape, each NF built from
// nf.DefaultRegistry, the pkt calls each NF makes (replayed on the same
// input, so the NF's self time can exclude them), and
// execenv.Env.ProcessPacket.

// serializeCall is one pkt.Serialize call an NF makes for a frame.
type serializeCall struct {
	opts   pkt.SerializeOptions
	layers []pkt.SerializableLayer
}

// nfLayer is one NF of a workload's chain, run standalone.
type nfLayer struct {
	metric string // metric prefix, e.g. "nf.nat"
	proc   nf.Processor
	inPort int
	// decode replays the pkt decoding the NF does on an input frame.
	decode func(in []byte)
	// serializes returns the pkt.Serialize calls the NF made to produce
	// out from in (built outside the timed loop, replayed inside it).
	serializes func(in, out []byte) []serializeCall
}

// nfCost accumulates one NF's isolated cost.
type nfCost struct {
	calls                 int64
	total, decode, serial time.Duration
	charge                time.Duration
	allocs, allocBytes    uint64
}

func (c *nfCost) selfNs() float64 {
	return float64(c.total-c.decode-c.serial) / float64(c.calls)
}

// runNF pushes one burst through an NF, timing the processor, its pkt
// replays and the execution-environment charge separately, and returns the
// emitted frames (the next NF's input).
func runNF(l *nfLayer, c *nfCost, env *execenv.Env, mem *memReader, in [][]byte) ([][]byte, error) {
	out := make([][]byte, len(in))
	crypto := make([]int, len(in))
	m0 := mem.read()
	t0 := time.Now()
	for i, f := range in {
		res, err := l.proc.Process(l.inPort, f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.metric, err)
		}
		if len(res.Emissions) != 1 {
			return nil, fmt.Errorf("%s emitted %d frames for one input", l.metric, len(res.Emissions))
		}
		out[i] = res.Emissions[0].Frame
		crypto[i] = res.CryptoBytes
	}
	c.total += time.Since(t0)
	m1 := mem.read()
	c.allocs += m1.allocObjects - m0.allocObjects
	c.allocBytes += m1.allocBytes - m0.allocBytes
	c.calls += int64(len(in))

	t0 = time.Now()
	for _, f := range in {
		l.decode(f)
	}
	c.decode += time.Since(t0)

	if l.serializes != nil {
		var calls []serializeCall
		for i := range in {
			calls = append(calls, l.serializes(in[i], out[i])...)
		}
		t0 = time.Now()
		for _, sc := range calls {
			if _, err := pkt.Serialize(sc.opts, sc.layers...); err != nil {
				return nil, fmt.Errorf("%s serialize replay: %w", l.metric, err)
			}
		}
		c.serial += time.Since(t0)
	}

	t0 = time.Now()
	for i, f := range in {
		env.ProcessPacket(f, crypto[i])
	}
	c.charge += time.Since(t0)
	return out, nil
}

// decodeEthernet is the Ethernet-only decode of ipsec encap.
func decodeEthernet(in []byte) {
	var eth pkt.Ethernet
	_ = eth.DecodeFromBytes(in)
}

// decodeESP is ipsec decap's decoding: Ethernet, outer IPv4 and ESP in the
// NF, then IPv4 and ESP again inside SA.Decapsulate.
func decodeESP(in []byte) {
	var eth pkt.Ethernet
	var ip pkt.IPv4
	var esp pkt.ESP
	_ = eth.DecodeFromBytes(in)
	for i := 0; i < 2; i++ {
		_ = ip.DecodeFromBytes(eth.LayerPayload())
		_ = esp.DecodeFromBytes(ip.LayerPayload())
	}
}

// decodePacket is the full-stack decode of firewall, NAT and monitor.
func decodePacket(opts pkt.DecodeOptions) func([]byte) {
	return func(in []byte) {
		p := pkt.NewPacket(in, pkt.LayerTypeEthernet, opts)
		_ = p.Layer(pkt.LayerTypeIPv4)
		_ = p.TransportLayer()
	}
}

func ethernetOf(out []byte) *pkt.Ethernet {
	var eth pkt.Ethernet
	_ = eth.DecodeFromBytes(out)
	return &pkt.Ethernet{SrcMAC: eth.SrcMAC, DstMAC: eth.DstMAC, EthernetType: eth.EthernetType}
}

// serializeEncap: SA.Encapsulate serializes outer IPv4 + ESP + payload,
// then the NF frames it in Ethernet.
func serializeEncap(_, out []byte) []serializeCall {
	var ip pkt.IPv4
	var esp pkt.ESP
	outerIP := out[pkt.EthernetHeaderLen:]
	_ = ip.DecodeFromBytes(outerIP)
	_ = esp.DecodeFromBytes(ip.LayerPayload())
	return []serializeCall{
		{pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}, []pkt.SerializableLayer{
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtocolESP, SrcIP: ip.SrcIP, DstIP: ip.DstIP},
			&pkt.ESP{SPI: esp.SPI, Seq: esp.Seq},
			pkt.Payload(esp.LayerPayload()),
		}},
		{pkt.SerializeOptions{}, []pkt.SerializableLayer{ethernetOf(out), pkt.Payload(outerIP)}},
	}
}

// serializeDecap: the NF frames the decrypted packet in Ethernet.
func serializeDecap(_, out []byte) []serializeCall {
	return []serializeCall{
		{pkt.SerializeOptions{}, []pkt.SerializableLayer{ethernetOf(out), pkt.Payload(out[pkt.EthernetHeaderLen:])}},
	}
}

// serializeNAT: the NAT re-serializes the rewritten Ethernet/IPv4/UDP frame.
func serializeNAT(_, out []byte) []serializeCall {
	p := pkt.NewPacket(out, pkt.LayerTypeEthernet, pkt.Default)
	ip, _ := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	udp, _ := p.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if ip == nil || udp == nil {
		return nil
	}
	nip := &pkt.IPv4{TOS: ip.TOS, ID: ip.ID, Flags: ip.Flags, FragOff: ip.FragOff,
		TTL: ip.TTL, Protocol: ip.Protocol, SrcIP: ip.SrcIP, DstIP: ip.DstIP}
	nudp := &pkt.UDP{SrcPort: udp.SrcPort, DstPort: udp.DstPort}
	nudp.SetNetworkLayerForChecksum(nip)
	return []serializeCall{
		{pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}, []pkt.SerializableLayer{
			ethernetOf(out), nip, nudp, pkt.Payload(udp.LayerPayload()),
		}},
	}
}

// buildNF builds a standalone NF from the default registry.
func buildNF(metric, template string, config map[string]string, inPort int, decode func([]byte), ser func(in, out []byte) []serializeCall) (*nfLayer, error) {
	proc, err := nf.DefaultRegistry().Build(template, config)
	if err != nil {
		return nil, err
	}
	return &nfLayer{metric: metric, proc: proc, inPort: inPort, decode: decode, serializes: ser}, nil
}

// hopCost times one netdev.Veth hop: SendBatch of the workload's bursts
// into a batch handler. Returns ns per frame.
func hopCost(bursts [][]netdev.Frame) float64 {
	a, b := netdev.Veth("perfbench-a", "perfbench-b")
	var n int
	b.SetBatchHandler(func(fs []netdev.Frame) { n += len(fs) })
	b.SetHandler(func(netdev.Frame) { n++ })
	sendAll := func() time.Duration {
		t0 := time.Now()
		for _, burst := range bursts {
			for i := range burst {
				burst[i].Hops = 0
			}
			_, _ = a.SendBatch(burst)
		}
		return time.Since(t0)
	}
	sendAll()
	n = 0
	d := sendAll()
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// switchCost times a standalone synchronous vswitch carrying rules
// in-port-match entries (the shape of the node's graph LSI; only in-port 1
// has a port behind it) with its microflow cache on. The workload's frames
// enter port 1 and leave port 2: two netdev hops plus one pipeline
// traversal per frame. Returns the pipeline's ns per frame with the hops
// subtracted.
func switchCost(bursts [][]netdev.Frame, rules int, hopNs float64) (float64, error) {
	sw := vswitch.New("perfbench", 1)
	defer sw.Close()
	in, swIn := netdev.Veth("perfbench-in", "perfbench-sw-in")
	sink, swSink := netdev.Veth("perfbench-sink", "perfbench-sw-sink")
	if err := sw.AddPort(1, swIn); err != nil {
		return 0, err
	}
	if err := sw.AddPort(2, swSink); err != nil {
		return 0, err
	}
	// The switch clones frames it outputs into pooled buffers; the sink
	// recycles them, as the node's traffic sinks do.
	var n int
	sink.SetBatchHandler(func(fs []netdev.Frame) {
		for _, f := range fs {
			pkt.PutBuffer(f.Data)
		}
		n += len(fs)
	})
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data); n++ })
	for r := 0; r < rules; r++ {
		port := uint32(1 + 2*r)
		if err := sw.AddFlow(&vswitch.FlowEntry{
			Priority: 10,
			Match:    vswitch.MatchAll().WithInPort(port),
			Actions:  []vswitch.Action{vswitch.Output(port + 1)},
		}); err != nil {
			return 0, err
		}
	}
	sendAll := func() time.Duration {
		t0 := time.Now()
		for _, burst := range bursts {
			for i := range burst {
				burst[i].Hops = 0
			}
			_, _ = in.SendBatch(burst)
		}
		return time.Since(t0)
	}
	sendAll()
	n = 0
	d := sendAll()
	if n == 0 {
		return 0, fmt.Errorf("standalone switch delivered nothing")
	}
	return float64(d)/float64(n) - 2*hopNs, nil
}

// dpLayers is the isolated per-layer cost of a workload's frames.
type dpLayers struct {
	frames   int64 // frames pushed through each layer
	nfs      []*nfCost
	names    []string
	hopNs    float64
	switchNs float64
}

// report adds the isolated layer metrics and returns the layer sum per
// delivered frame: each NF's self time, pkt and execenv cost (totals over
// d.frames), one netdev hop per port crossing and one pipeline per LSI
// traversal the live counters saw, and the background GC time per frame
// (reportCounters and the go.gc_ns metric come first).
func (d *dpLayers) report(o *outcome) float64 {
	var decode, serial, charge time.Duration
	frames := d.frames
	sum := o.vals["netdev.hops_per_frame"]*d.hopNs + o.vals["vswitch.traversals_per_frame"]*d.switchNs + o.vals["go.gc_ns"]
	for i, c := range d.nfs {
		if c.calls == 0 {
			continue
		}
		name := d.names[i]
		o.vals[name+".ns"] = c.selfNs()
		o.vals[name+".allocs"] = float64(c.allocs) / float64(c.calls)
		o.vals[name+".bytes"] = float64(c.allocBytes) / float64(c.calls)
		sum += float64(c.total-c.decode-c.serial) / float64(frames)
		decode += c.decode
		serial += c.serial
		charge += c.charge
	}
	o.vals["pkt.decode_ns"] = float64(decode) / float64(frames)
	o.vals["pkt.serialize_ns"] = float64(serial) / float64(frames)
	o.vals["execenv.charge_ns"] = float64(charge) / float64(frames)
	o.vals["netdev.deliver_ns"] = d.hopNs
	o.vals["vswitch.lookup_ns"] = d.switchNs
	sum += float64(decode+serial+charge) / float64(frames)
	return sum
}

// The data-plane layer-sum check has three parts, each a share of the
// untraced end-to-end CPU time per frame:
//   - tracing overhead: the traced pass may cost at most layerSumTolerance
//     more (or less) than the untraced one;
//   - no overcount: the isolated layer self times may exceed the traced
//     end-to-end time by at most layerSumTolerance;
//   - coverage: the layers must account for at least layerCoverageMin of
//     the traced end-to-end time, so dp.unattributed_ns (the NF runtime
//     hand-off and inter-LSI delivery no layer timing covers) stays below
//     the rest. Runs cover 65-80% (ipsec-mtu) and about 50% (cpe-64b, whose
//     ring hand-off is unattributed).
const (
	layerSumTolerance = 0.25
	layerCoverageMin  = 0.35
)

// layerSum applies the layer-sum check and reports its metrics. e2e and
// traced are CPU ns per delivered frame of the untraced and traced passes.
func layerSum(o *outcome, sum, e2e, traced float64) {
	o.vals["dp.e2e_ns"] = e2e
	o.vals["dp.e2e_traced_ns"] = traced
	o.vals["dp.layer_sum_ns"] = sum
	o.vals["dp.unattributed_ns"] = traced - sum
	o.vals["dp.tracing_overhead_ns"] = traced - e2e
	if d := traced - e2e; math.Abs(d) > layerSumTolerance*e2e {
		o.fail(fmt.Errorf("layer sum: traced pass costs %.0f ns/frame, untraced %.0f ns/frame: tracing overhead beyond %.0f%%",
			traced, e2e, layerSumTolerance*100))
	}
	if traced-sum < -layerSumTolerance*e2e {
		o.fail(fmt.Errorf("layer sum: isolated layers add up to %.0f ns/frame, more than the traced end-to-end %.0f ns/frame by over %.0f%%",
			sum, traced, layerSumTolerance*100))
	}
	if sum < layerCoverageMin*traced {
		o.fail(fmt.Errorf("layer sum: isolated layers add up to %.0f ns/frame, under %.0f%% of the traced end-to-end %.0f ns/frame",
			sum, layerCoverageMin*100, traced))
	}
}

// nodeCounters is a scrape of the node series the traced passes read,
// each summed over its label sets.
type nodeCounters map[string]float64

var nodeSeries = []string{
	"un_lsi_rx_packets_total", "un_lsi_tx_packets",
	"un_cache_hits_total", "un_cache_misses_total",
	"un_switch_worker_tx_coalesced_total", "un_switch_worker_tx_flushes_total",
	"un_switch_worker_packets_total", "un_switch_worker_bursts_total",
	"un_switch_worker_queue_drops_total",
}

func scrapeNode(node *un.Node) (nodeCounters, promText, error) {
	var buf bytes.Buffer
	if err := node.WriteMetrics(&buf); err != nil {
		return nil, nil, err
	}
	p := parseProm(buf.Bytes())
	c := make(nodeCounters, len(nodeSeries))
	for _, s := range nodeSeries {
		c[s] = p.sum(s)
	}
	return c, p, nil
}

// addGrowth adds the growth of every series from before to after.
func (c nodeCounters) addGrowth(before, after nodeCounters) {
	for s, v := range after {
		c[s] += v - before[s]
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportCounters adds the live-counter layer metrics of the traced passes,
// whose counters grew by d while they delivered frames through a chain of
// nfs NFs. A frame crosses one netdev port per LSI output
// (un_lsi_tx_packets), per NF emission, and once more at injection.
func reportCounters(o *outcome, d nodeCounters, frames int64, nfs int, depthMax float64) {
	hits, misses := d["un_cache_hits_total"], d["un_cache_misses_total"]
	o.vals["vswitch.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.vals["vswitch.traversals_per_frame"] = ratio(d["un_lsi_rx_packets_total"], float64(frames))
	o.vals["netdev.hops_per_frame"] = ratio(d["un_lsi_tx_packets"], float64(frames)) + float64(nfs) + 1
	o.vals["vswitch.tx_frames_per_flush"] = ratio(d["un_switch_worker_tx_coalesced_total"], d["un_switch_worker_tx_flushes_total"])
	o.vals["vswitch.burst_frames_mean"] = ratio(d["un_switch_worker_packets_total"], d["un_switch_worker_bursts_total"])
	o.vals["vswitch.drops"] = d["un_switch_worker_queue_drops_total"]
	o.vals["vswitch.queue_depth_max"] = depthMax
}

// traceRounds is how many (untraced, traced) pass pairs a traced run
// alternates through, so neither side always runs on the colder program.
const traceRounds = 2

// newStandaloneEnv is a private native execution environment for timing
// execenv.Env.ProcessPacket in isolation.
func newStandaloneEnv() (*execenv.Env, error) {
	env, err := execenv.New("perfbench", execenv.FlavorNative, execenv.Default(), nil)
	if err != nil {
		return nil, err
	}
	env.Start()
	return env, nil
}
