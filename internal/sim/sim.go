// Package sim provides 64-way bit-parallel logic simulation of netlists,
// plus the security metrics built on it: output error rate (OER), Hamming
// distance (HD), and functional-equivalence checking. It stands in for the
// paper's use of Synopsys VCS (1,000,000 random patterns) and Formality.
//
// Patterns are packed 64 per machine word, so simulating one million
// patterns over a netlist costs ~15625 topological passes' worth of word
// operations per gate — comfortably laptop-scale for ISCAS-85.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"splitmfg/internal/netlist"
)

// ErrCombLoop is returned when the netlist under simulation has a
// combinational cycle (which the defense explicitly never creates).
var ErrCombLoop = errors.New("sim: netlist has a combinational loop")

// Simulator evaluates a fixed netlist over packed pattern words. DFF
// outputs are treated as pseudo primary inputs (their word values are taken
// from the SeqState field) and DFF D-pins as pseudo primary outputs, which
// is the standard combinational-unrolling treatment for HD/OER metrics.
type Simulator struct {
	nl    *netlist.Netlist
	order []int // topological gate order

	// SeqState supplies per-DFF input words, indexed densely by gate ID
	// (entries for non-DFF gates are ignored). When the outer slice is nil,
	// short, or a DFF's entry is nil, that DFF's output simulates as 0.
	SeqState [][]uint64 // gate ID -> words
}

// SetSeqState records the input words for one DFF gate, growing the dense
// table on demand.
func (s *Simulator) SetSeqState(gate int, words []uint64) {
	if gate >= len(s.SeqState) {
		grown := make([][]uint64, s.nl.NumGates())
		copy(grown, s.SeqState)
		s.SeqState = grown
	}
	s.SeqState[gate] = words
}

// New builds a simulator, returning ErrCombLoop for cyclic designs.
func New(nl *netlist.Netlist) (*Simulator, error) {
	order, ok := nl.TopoOrder()
	if !ok {
		return nil, ErrCombLoop
	}
	return &Simulator{nl: nl, order: order}, nil
}

// Netlist returns the design being simulated.
func (s *Simulator) Netlist() *netlist.Netlist { return s.nl }

// Eval simulates `words` 64-pattern words. piWords[i][w] provides the w-th
// word of primary input i. It returns one slice per net (indexed by net ID)
// holding the simulated words, so callers can inspect both POs and internal
// nets. A PI net's slice is its piWords entry; each gate's output is the
// next full-capacity window of one words × gates buffer, so a call
// allocates twice whatever the gate count.
func (s *Simulator) Eval(piWords [][]uint64, words int) ([][]uint64, error) {
	nl := s.nl
	if len(piWords) != nl.NumPIs() {
		return nil, fmt.Errorf("sim: got %d PI vectors, want %d", len(piWords), nl.NumPIs())
	}
	for i, v := range piWords {
		if len(v) < words {
			return nil, fmt.Errorf("sim: PI %d has %d words, want >= %d", i, len(v), words)
		}
	}
	val := make([][]uint64, nl.NumNets())
	buf := make([]uint64, words*nl.NumGates())
	// next carves the next gate output's window from buf.
	next := func() []uint64 {
		out := buf[:words:words]
		buf = buf[words:]
		return out
	}
	for pi, netID := range nl.PINets {
		val[netID] = piWords[pi][:words]
	}
	// DFF outputs are sources for combinational evaluation: assign them up
	// front (the topological order only guarantees combinational
	// dependencies, so a consumer may precede the DFF itself).
	for _, g := range nl.Gates {
		if g.Type != netlist.DFF {
			continue
		}
		out := next()
		if g.ID < len(s.SeqState) {
			copy(out, s.SeqState[g.ID])
		}
		val[g.Out] = out
	}
	for _, gid := range s.order {
		g := nl.Gates[gid]
		if g.Type == netlist.DFF {
			continue // already assigned above
		}
		out := next()
		switch g.Type {
		case netlist.Buf:
			copy(out, val[g.Fanin[0]])
		case netlist.Inv:
			in := val[g.Fanin[0]]
			for w := 0; w < words; w++ {
				out[w] = ^in[w]
			}
		case netlist.Xor, netlist.Xnor:
			a, b := val[g.Fanin[0]], val[g.Fanin[1]]
			for w := 0; w < words; w++ {
				out[w] = a[w] ^ b[w]
			}
			if g.Type == netlist.Xnor {
				for w := 0; w < words; w++ {
					out[w] = ^out[w]
				}
			}
		case netlist.Mux:
			sel, a, b := val[g.Fanin[0]], val[g.Fanin[1]], val[g.Fanin[2]]
			for w := 0; w < words; w++ {
				out[w] = (a[w] &^ sel[w]) | (b[w] & sel[w])
			}
		case netlist.And, netlist.Nand:
			copy(out, val[g.Fanin[0]])
			for _, netID := range g.Fanin[1:] {
				in := val[netID]
				for w := 0; w < words; w++ {
					out[w] &= in[w]
				}
			}
			if g.Type == netlist.Nand {
				for w := 0; w < words; w++ {
					out[w] = ^out[w]
				}
			}
		case netlist.Or, netlist.Nor:
			copy(out, val[g.Fanin[0]])
			for _, netID := range g.Fanin[1:] {
				in := val[netID]
				for w := 0; w < words; w++ {
					out[w] |= in[w]
				}
			}
			if g.Type == netlist.Nor {
				for w := 0; w < words; w++ {
					out[w] = ^out[w]
				}
			}
		default:
			return nil, fmt.Errorf("sim: unsupported gate type %v", g.Type)
		}
		val[g.Out] = out
	}
	return val, nil
}

// POWords extracts the primary-output words from an Eval result.
func (s *Simulator) POWords(val [][]uint64) [][]uint64 {
	out := make([][]uint64, s.nl.NumPOs())
	for po, netID := range s.nl.PONets {
		out[po] = val[netID]
	}
	return out
}

// RandomPatterns generates `words` words of random stimulus for nPI inputs.
func RandomPatterns(rng *rand.Rand, nPI, words int) [][]uint64 {
	v := make([][]uint64, nPI)
	for i := range v {
		v[i] = make([]uint64, words)
		for w := range v[i] {
			v[i][w] = rng.Uint64()
		}
	}
	return v
}

// ExhaustivePatterns enumerates all 2^nPI input combinations (nPI <= 20).
// The returned word count covers every combination; trailing pattern slots
// in the final word replicate the last combination so they never create
// spurious mismatches.
func ExhaustivePatterns(nPI int) ([][]uint64, int, error) {
	if nPI > 20 {
		return nil, 0, fmt.Errorf("sim: exhaustive patterns limited to 20 inputs, got %d", nPI)
	}
	total := 1 << uint(nPI)
	words := (total + 63) / 64
	v := make([][]uint64, nPI)
	for i := range v {
		v[i] = make([]uint64, words)
	}
	for p := 0; p < words*64; p++ {
		pat := p
		if pat >= total {
			pat = total - 1
		}
		for i := 0; i < nPI; i++ {
			if pat>>uint(i)&1 == 1 {
				v[i][p/64] |= 1 << uint(p%64)
			}
		}
	}
	return v, words, nil
}

// CompareResult aggregates mismatch statistics between two simulated
// netlists over the same stimulus.
type CompareResult struct {
	Patterns      int     // number of patterns compared
	Outputs       int     // number of primary outputs
	ErrPatterns   int     // patterns with at least one differing output
	DiffBits      int     // total differing output bits
	OER           float64 // ErrPatterns / Patterns
	HD            float64 // DiffBits / (Patterns*Outputs)
	PerOutputDiff []int   // differing patterns per output
}

// Compare simulates both netlists (which must have identical PI/PO counts;
// names may differ) over the given stimulus and reports OER and HD.
func Compare(golden, other *netlist.Netlist, piWords [][]uint64, words int) (CompareResult, error) {
	var res CompareResult
	if golden.NumPIs() != other.NumPIs() || golden.NumPOs() != other.NumPOs() {
		return res, fmt.Errorf("sim: interface mismatch: %d/%d PIs, %d/%d POs",
			golden.NumPIs(), other.NumPIs(), golden.NumPOs(), other.NumPOs())
	}
	sg, err := New(golden)
	if err != nil {
		return res, err
	}
	so, err := New(other)
	if err != nil {
		return res, err
	}
	vg, err := sg.Eval(piWords, words)
	if err != nil {
		return res, err
	}
	vo, err := so.Eval(piWords, words)
	if err != nil {
		return res, err
	}
	pg, po := sg.POWords(vg), so.POWords(vo)
	res.Patterns = words * 64
	res.Outputs = golden.NumPOs()
	res.PerOutputDiff = make([]int, res.Outputs)
	for w := 0; w < words; w++ {
		var anyDiff uint64
		for out := 0; out < res.Outputs; out++ {
			d := pg[out][w] ^ po[out][w]
			anyDiff |= d
			c := bits.OnesCount64(d)
			res.DiffBits += c
			res.PerOutputDiff[out] += c
		}
		res.ErrPatterns += bits.OnesCount64(anyDiff)
	}
	if res.Patterns > 0 {
		res.OER = float64(res.ErrPatterns) / float64(res.Patterns)
		if res.Outputs > 0 {
			res.HD = float64(res.DiffBits) / float64(res.Patterns*res.Outputs)
		}
	}
	return res, nil
}

// OER estimates the output error rate of `other` against `golden` using
// `words` words of random patterns.
func OER(golden, other *netlist.Netlist, rng *rand.Rand, words int) (float64, error) {
	pats := RandomPatterns(rng, golden.NumPIs(), words)
	res, err := Compare(golden, other, pats, words)
	if err != nil {
		return 0, err
	}
	return res.OER, nil
}

// HD estimates the Hamming distance of `other` against `golden` using
// `words` words of random patterns.
func HD(golden, other *netlist.Netlist, rng *rand.Rand, words int) (float64, error) {
	pats := RandomPatterns(rng, golden.NumPIs(), words)
	res, err := Compare(golden, other, pats, words)
	if err != nil {
		return 0, err
	}
	return res.HD, nil
}

// Equivalent checks functional equivalence. For designs with at most 20
// primary inputs the check is exhaustive (a real miter); otherwise it is a
// Monte-Carlo check with the given word budget (a mismatch is conclusive,
// agreement is probabilistic). This replaces the paper's Formality step.
func Equivalent(a, b *netlist.Netlist, rng *rand.Rand, words int) (bool, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, nil
	}
	if a.NumPIs() <= 20 {
		pats, w, err := ExhaustivePatterns(a.NumPIs())
		if err != nil {
			return false, err
		}
		res, err := Compare(a, b, pats, w)
		if err != nil {
			return false, err
		}
		return res.DiffBits == 0, nil
	}
	pats := RandomPatterns(rng, a.NumPIs(), words)
	res, err := Compare(a, b, pats, words)
	if err != nil {
		return false, err
	}
	return res.DiffBits == 0, nil
}
