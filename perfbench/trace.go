package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// spanKind names a layer boundary the benchmark records a span at.
type spanKind uint8

const (
	spanClient         spanKind = iota // one control-plane request, client side
	spanGlobalHandler                  // the global REST handler serving it
	spanNodeRPC                        // a global -> node REST call
	spanNodeHandler                    // the node REST handler serving it
	spanClusterRPC                     // a replica -> replica cluster RPC
	spanClusterHandler                 // the receiving replica's handler
)

// span is one recorded interval. Times are nanoseconds since the log's
// base. Spans of one client request share req; parent is the id of the
// span that caused this one (0 for a root).
type span struct {
	kind   spanKind
	id     uint64
	parent uint64
	req    uint64
	start  int64
	end    int64
	// op is the HTTP verb and path of a request span; bytes its request
	// body size; ops the op count of a cluster append (-1 otherwise).
	op    string
	bytes int64
	ops   int
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	next  uint64
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record stores s, assigning its id.
func (l *spanLog) record(s span) {
	l.mu.Lock()
	l.next++
	s.id = l.next
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// newID reserves a span id ahead of recording (a parent must hand its id
// to children before it ends).
func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// put stores a span whose id came from newID.
func (l *spanLog) put(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.base)) }

// snapshot returns a copy of the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children are merged,
// so concurrent children are not double-subtracted).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, iv := range ivs {
			a, b := max(iv[0], s.start), min(iv[1], s.end)
			if b <= a {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// A run sets its workload up setupRepeats times and measures each set-up
// for an equal slice of the window, so that what differs between two
// instances of the program (hash seeds, the elected leader) averages out
// within a run. While the set-ups so far took less than setupMinTotal,
// more are built (up to setupMaxRepeats in all) and closed unmeasured.
// setup_s is the median set-up.
const (
	setupRepeats    = 5
	setupMaxRepeats = 25
	setupMinTotal   = 5 * time.Second
)

// setupPhases splits one set-up into the phases the traced run reports.
type setupPhases struct {
	nodeBuild time.Duration // building the Universal Nodes
	leader    time.Duration // first leader elected (fleet-ops only)
	deploy    time.Duration // deploying graphs, resident tenants, warm-up
}

// setupStats summarizes the repeated set-ups.
type setupStats struct {
	median time.Duration
	phases setupPhases // per-phase medians
}

// rotate builds the workload setupRepeats times, calls use on each set-up
// (numbered from 0) and closes it; then it adds unmeasured set-ups while
// they are cheap.
func rotate[R interface{ close() }](build func(*setupPhases) (R, error), use func(int, R) error) (setupStats, error) {
	var (
		spent                      time.Duration
		total, nodes, lead, deploy []float64
	)
	for i := 0; i < setupMaxRepeats && (i < setupRepeats || spent < setupMinTotal); i++ {
		var ph setupPhases
		t0 := time.Now()
		r, err := build(&ph)
		if err != nil {
			return setupStats{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0)
		spent += d
		total = append(total, float64(d))
		nodes = append(nodes, float64(ph.nodeBuild))
		lead = append(lead, float64(ph.leader))
		deploy = append(deploy, float64(ph.deploy))
		if i < setupRepeats {
			err = use(i, r)
		}
		r.close()
		if err != nil {
			return setupStats{}, err
		}
	}
	return setupStats{
		median: time.Duration(median(total)),
		phases: setupPhases{
			nodeBuild: time.Duration(median(nodes)),
			leader:    time.Duration(median(lead)),
			deploy:    time.Duration(median(deploy)),
		},
	}, nil
}

// reportSetup adds the set-up phase metrics to a traced outcome.
func (o *outcome) reportSetup(s setupStats) {
	o.vals["setup.node_build_s"] = s.phases.nodeBuild.Seconds()
	o.vals["setup.first_leader_s"] = s.phases.leader.Seconds()
	o.vals["setup.resident_deploy_s"] = s.phases.deploy.Seconds()
}
