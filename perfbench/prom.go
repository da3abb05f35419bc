package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// promText is one scrape of a Prometheus text exposition, reduced to the
// series the benchmark reads: values by series name, labels kept only as
// part of each sample.
type promText map[string][]float64

// parseProm parses the exposition the program writes on /metrics.
func parseProm(b []byte) promText {
	out := make(promText)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] = append(out[name], v)
	}
	return out
}

// sum adds every sample of a series (all label sets).
func (p promText) sum(name string) float64 {
	var s float64
	for _, v := range p[name] {
		s += v
	}
	return s
}

// max is the largest sample of a series; 0 when absent.
func (p promText) max(name string) float64 {
	var m float64
	for _, v := range p[name] {
		if v > m {
			m = v
		}
	}
	return m
}
