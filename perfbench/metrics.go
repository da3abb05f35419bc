package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the user-visible metrics, reported by every workload with
// tracing off. An "op" is a frame delivered at the egress port (ipsec-mtu,
// cpe-64b) or a control-plane request completed with a 2xx reply
// (fleet-ops).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_mean_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0 (see README).
var perLayer = []metricDef{
	// Data plane, NF layer (self time excludes the pkt calls the NF makes).
	{"nf.ipsec_encap.ns", "ns"},
	{"nf.ipsec_encap.allocs", "count"},
	{"nf.ipsec_encap.bytes", "B"},
	{"nf.ipsec_decap.ns", "ns"},
	{"nf.ipsec_decap.allocs", "count"},
	{"nf.ipsec_decap.bytes", "B"},
	{"nf.firewall.ns", "ns"},
	{"nf.firewall.allocs", "count"},
	{"nf.firewall.bytes", "B"},
	{"nf.nat.ns", "ns"},
	{"nf.nat.allocs", "count"},
	{"nf.nat.bytes", "B"},
	{"nf.monitor.ns", "ns"},
	{"nf.monitor.allocs", "count"},
	{"nf.monitor.bytes", "B"},
	// Data plane, packet codec, switch, ports, execution environment.
	{"pkt.serialize_ns", "ns"},
	{"pkt.decode_ns", "ns"},
	{"netdev.deliver_ns", "ns"},
	{"netdev.hops_per_frame", "count"},
	{"vswitch.lookup_ns", "ns"},
	{"vswitch.traversals_per_frame", "count"},
	{"vswitch.cache_hit_ratio", "ratio"},
	{"vswitch.tx_frames_per_flush", "count"},
	{"vswitch.burst_frames_mean", "count"},
	{"vswitch.queue_depth_max", "count"},
	{"vswitch.drops", "count"},
	{"execenv.charge_ns", "ns"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_ns", "ns"},
	// Data plane, layer sum: untraced and traced end-to-end CPU per frame,
	// the residual no layer accounts for, and tracing overhead.
	{"dp.e2e_ns", "ns"},
	{"dp.e2e_traced_ns", "ns"},
	{"dp.layer_sum_ns", "ns"},
	{"dp.unattributed_ns", "ns"},
	{"dp.tracing_overhead_ns", "ns"},
	{"e2e.latency_p50_us", "us"},
	{"e2e.latency_p90_us", "us"},
	{"e2e.latency_p99_us", "us"},
	{"dp.encap_latency_p50_us", "us"},
	{"dp.decap_latency_p50_us", "us"},
	// Control plane, per mutation (PUT/POST/DELETE) on the leader.
	{"fleet.mutation_p50_ms", "ms"},
	{"fleet.mutation_p90_ms", "ms"},
	{"fleet.read_p50_ms", "ms"},
	{"fleet.read_p90_ms", "ms"},
	{"global.node_rpcs_per_mutation", "count"},
	{"global.node_rpc_ms_per_mutation", "ms"},
	{"global.node_rpc_ms_per_mutation.GET", "ms"},
	{"global.node_rpc_ms_per_mutation.PUT", "ms"},
	{"global.node_rpc_ms_per_mutation.POST", "ms"},
	{"global.node_rpc_ms_per_mutation.DELETE", "ms"},
	{"orchestrator.handler_ms", "ms"},
	{"orchestrator.deploy_ms", "ms"},
	{"cluster.append_rpcs_per_mutation", "count"},
	{"cluster.append_bytes_per_mutation", "B"},
	{"cluster.append_ms_per_mutation", "ms"},
	{"global.plan_ms", "ms"},
	{"nffg.validate_ms", "ms"},
	{"rest.global_handler_ms", "ms"},
	{"rest.client_overhead_ms", "ms"},
	{"global.reconcile_ms", "ms"},
	{"global.reconcile_passes_per_s", "1/s"},
	{"cluster.heartbeat_rpcs_per_s", "1/s"},
	// Set-up, split into its phases (the median set-up).
	{"setup.node_build_s", "s"},
	{"setup.first_leader_s", "s"},
	{"setup.resident_deploy_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report fills a result from measured values: it takes exactly the metrics
// of defs, looking each up in vals. A metric of defs missing from vals is
// an error when required, and reads 0 otherwise (a layer the workload does
// not exercise). A value in vals that defs does not declare is an error.
func report(defs []metricDef, vals map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if err := finite(d.name, v); err != nil {
			return nil, err
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for n := range vals {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
