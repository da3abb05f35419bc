package main

import (
	"fmt"
	"math/rand"

	"repro/internal/pkt"
)

// flowSeq is the seeded sequence of flow indices a workload sends: uniform
// over the flows, or Zipf-popular over a seeded permutation of them (so
// each seed makes different flows popular). Drawing never allocates.
type flowSeq struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int
	n    int
}

func newUniformSeq(seed int64, n int) *flowSeq {
	return &flowSeq{r: rand.New(rand.NewSource(seed)), n: n}
}

func newZipfSeq(seed int64, n int, s float64) *flowSeq {
	r := rand.New(rand.NewSource(seed))
	return &flowSeq{
		r:    r,
		perm: r.Perm(n),
		zipf: rand.NewZipf(r, s, 1, uint64(n-1)),
		n:    n,
	}
}

func (f *flowSeq) next() int {
	if f.zipf != nil {
		return f.perm[f.zipf.Uint64()]
	}
	return f.r.Intn(f.n)
}

// udpFrames builds n distinct UDP flows of the given frame size from seed:
// per-flow addresses, ports and payload byte. The UDP checksum is zeroed
// (optional in IPv4) so a benchmark may stamp bytes into the payload.
func udpFrames(seed int64, n, size int, dst pkt.Addr) ([][]byte, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	overhead := pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen
	if size < overhead+6 {
		return nil, fmt.Errorf("frame size %d below %d", size, overhead+6)
	}
	out := make([][]byte, n)
	for i := range out {
		f, err := pkt.BuildFrame(pkt.FrameSpec{
			SrcMAC:      pkt.MAC{0x02, 0, 0, 0, 0x10, 0x01},
			DstMAC:      pkt.MAC{0x02, 0, 0, 0, 0x10, 0x02},
			SrcIP:       pkt.Addr{10, byte(1 + i>>16), byte(i >> 8), byte(i)},
			DstIP:       dst,
			SrcPort:     uint16(1024 + r.Intn(60000)),
			DstPort:     uint16(1 + r.Intn(1023)),
			PayloadLen:  size - overhead,
			PayloadByte: byte(r.Intn(256)),
		})
		if err != nil {
			return nil, err
		}
		udpCsum := pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + 6
		f[udpCsum], f[udpCsum+1] = 0, 0
		out[i] = f
	}
	return out, nil
}
