// Package bench generates the evaluation workloads. The paper evaluates on
// seven ISCAS-85 circuits (attacked with the network-flow proximity attack)
// plus five industrial IBM superblue designs (attacked with crouting). The
// original netlists are not shippable here, so this package deterministically
// synthesizes stand-ins that preserve what the experiments consume:
//
//   - published primary-input/primary-output counts,
//   - published gate/net counts (superblue scaled by a configurable factor
//     so the suite runs on a laptop; scale 1 reproduces full size),
//   - realistic structure: layered logic with locality (Rent-style mostly
//     near fan-in selection), fan-out distribution with a long tail, and a
//     sequential fraction for the superblue designs.
//
// c6288 is special-cased as a real 16x16 carry-save array multiplier — the
// actual function of the original benchmark — rather than random logic.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"splitmfg/internal/netlist"
)

// Spec parameterizes the synthetic generator.
type Spec struct {
	Name     string
	PIs      int
	POs      int
	Gates    int
	Seed     int64
	DFFRatio float64 // fraction of gates that are flip-flops
	Locality float64 // 0..1; probability a fan-in is drawn from the recent window
	Window   int     // size of the locality window in gates; 0 = Gates/20
}

// iscasSpec carries the published interface/gate counts of the ISCAS-85
// suite (gate counts per the standard netlist distributions).
type iscasSpec struct {
	pis, pos, gates int
}

var iscas85 = map[string]iscasSpec{
	"c432":  {36, 7, 160},
	"c880":  {60, 26, 383},
	"c1355": {41, 32, 546},
	"c1908": {33, 25, 880},
	"c2670": {233, 140, 1193},
	"c3540": {50, 22, 1669},
	"c5315": {178, 123, 2307},
	"c6288": {32, 32, 2406},
	"c7552": {207, 108, 3512},
}

// superblueSpec carries the published counts from Table 2 of the paper.
type superblueSpec struct {
	nets, ins, outs int
	util            int // target placement utilization (percent)
}

var superblue = map[string]superblueSpec{
	"superblue1":  {873712, 8320, 13025, 69},
	"superblue5":  {754907, 11661, 9617, 77},
	"superblue10": {1147401, 10454, 23663, 75},
	"superblue12": {1520046, 1936, 4629, 56},
	"superblue18": {670323, 3921, 7465, 67},
}

// ISCASNames returns the ISCAS-85 benchmark names in canonical order.
func ISCASNames() []string {
	names := make([]string, 0, len(iscas85))
	for n := range iscas85 {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return atoiSafe(names[i][1:]) < atoiSafe(names[j][1:])
	})
	return names
}

// SuperblueNames returns the superblue benchmark names in paper order.
func SuperblueNames() []string {
	return []string{"superblue1", "superblue5", "superblue10", "superblue12", "superblue18"}
}

// IsSuperblue reports whether the catalog name denotes an industrial
// superblue design (as opposed to an ISCAS-85 circuit).
func IsSuperblue(name string) bool {
	return strings.HasPrefix(name, "superblue")
}

// Load loads any catalog benchmark by name, dispatching between the
// ISCAS-85 and superblue generators. scale is the superblue scale divisor
// (>= 1); ISCAS designs ignore it.
func Load(name string, scale int) (*netlist.Netlist, error) {
	if IsSuperblue(name) {
		return Superblue(name, scale)
	}
	return ISCAS85(name)
}

// PublishedSize returns the published structural size of a catalog
// benchmark: the gate count for an ISCAS-85 circuit, the net count from
// Table 2 of the paper for a superblue design, plus the published primary
// input/output counts. The numbers describe the original benchmarks, not a
// scaled synthetic stand-in, so catalog listings can advertise them without
// generating any netlist.
func PublishedSize(name string) (cells, ins, outs int, err error) {
	if IsSuperblue(name) {
		s, ok := superblue[name]
		if !ok {
			return 0, 0, 0, fmt.Errorf("bench: unknown superblue design %q", name)
		}
		return s.nets, s.ins, s.outs, nil
	}
	s, ok := iscas85[name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("bench: unknown ISCAS-85 benchmark %q", name)
	}
	return s.gates, s.pis, s.pos, nil
}

// SuperblueUtil returns the paper's placement utilization for the design.
func SuperblueUtil(name string) (int, error) {
	s, ok := superblue[name]
	if !ok {
		return 0, fmt.Errorf("bench: unknown superblue design %q", name)
	}
	return s.util, nil
}

func atoiSafe(s string) int {
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int(c-'0')
	}
	return v
}

// ISCAS85 synthesizes the named ISCAS-85 stand-in. c6288 is generated as a
// true 16x16 array multiplier; the others as layered random logic with the
// published interface and gate counts.
func ISCAS85(name string) (*netlist.Netlist, error) {
	spec, ok := iscas85[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown ISCAS-85 benchmark %q", name)
	}
	if name == "c6288" {
		return Multiplier(name, 16), nil
	}
	return Generate(Spec{
		Name:     name,
		PIs:      spec.pis,
		POs:      spec.pos,
		Gates:    spec.gates,
		Seed:     seedFor(name),
		Locality: 0.93,
		Window:   16,
	})
}

// Superblue synthesizes the named superblue stand-in at 1/scale of the
// published size (scale >= 1; scale 1 is full size). The generated designs
// include a sequential fraction, as the industrial originals do.
func Superblue(name string, scale int) (*netlist.Netlist, error) {
	spec, ok := superblue[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown superblue design %q", name)
	}
	if scale < 1 {
		return nil, fmt.Errorf("bench: scale must be >= 1, got %d", scale)
	}
	pis := max(8, spec.ins/scale)
	pos := max(8, spec.outs/scale)
	gates := max(200, (spec.nets-spec.ins)/scale)
	return Generate(Spec{
		Name:     name,
		PIs:      pis,
		POs:      pos,
		Gates:    gates,
		Seed:     seedFor(name),
		DFFRatio: 0.12,
		Locality: 0.92, // industrial designs are strongly local (Rent)
	})
}

func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// chosen reports whether id already appears among the picked fanins.
func chosen(fanin []int, id int) bool {
	for _, f := range fanin {
		if f == id {
			return true
		}
	}
	return false
}

// Generate synthesizes a netlist per the Spec. The construction is strictly
// feed-forward (fan-ins are drawn from already-created nets), so the result
// is acyclic by construction; DFFs additionally receive a feedback-free D
// input but act as sources for downstream logic. A spec asking for more
// POs than gates is rejected: POs past the sinkless nets are distinct gate
// outputs, so there would not be enough of them.
func Generate(s Spec) (*netlist.Netlist, error) {
	if s.PIs < 1 || s.Gates < 1 {
		return nil, fmt.Errorf("bench: spec needs at least 1 PI and 1 gate: %+v", s)
	}
	if s.POs > s.Gates {
		return nil, fmt.Errorf("bench: spec asks for %d POs from %d gates: %+v", s.POs, s.Gates, s)
	}
	if s.POs < 1 {
		s.POs = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	window := s.Window
	if window == 0 {
		window = s.Gates/20 + 8
	}
	nl := netlist.New(s.Name)
	// Instance names are "<prefix><index>"; building them with AppendInt
	// into one scratch buffer costs a single allocation per name where
	// fmt.Sprintf pays extra for boxing.
	var nameBuf []byte
	name := func(prefix string, i int) string {
		nameBuf = append(nameBuf[:0], prefix...)
		nameBuf = strconv.AppendInt(nameBuf, int64(i), 10)
		return string(nameBuf)
	}
	for i := 0; i < s.PIs; i++ {
		nl.AddPI(name("pi", i))
	}
	comb := []netlist.GateType{
		netlist.Nand, netlist.Nand, netlist.Nand, // NAND-rich like real ISCAS
		netlist.Nor, netlist.And, netlist.Or,
		netlist.Inv, netlist.Buf, netlist.Xor, netlist.Xnor,
	}
	pickNet := func(created int) int {
		// With probability Locality choose from the trailing window of
		// recently created nets; otherwise uniformly from all nets.
		n := nl.NumNets()
		if rng.Float64() < s.Locality && created > 0 {
			lo := n - window
			if lo < 0 {
				lo = 0
			}
			return lo + rng.Intn(n-lo)
		}
		return rng.Intn(n)
	}
	var faninBuf [8]int
	for i := 0; i < s.Gates; i++ {
		var gt netlist.GateType
		if s.DFFRatio > 0 && rng.Float64() < s.DFFRatio {
			gt = netlist.DFF
		} else {
			gt = comb[rng.Intn(len(comb))]
		}
		nin := gt.MinInputs()
		if gt.MaxInputs() > nin {
			// Bias toward 2-input gates like the real suites.
			extra := 0
			for extra < gt.MaxInputs()-nin && rng.Float64() < 0.25 {
				extra++
			}
			nin += extra
		}
		// Draw distinct fanins by scanning the few already-picked pins
		// (fan-in is at most 4); AddGate copies the shared buffer.
		fanin := faninBuf[:nin]
		for p := range fanin {
			id := pickNet(i)
			for tries := 0; chosen(fanin[:p], id) && tries < 8; tries++ {
				id = pickNet(i)
			}
			fanin[p] = id
		}
		nl.AddGate(name("g", i), gt, fanin...)
	}
	// Primary outputs: prefer nets with no sinks (so nothing dangles), then
	// fill up to the requested count with random late nets.
	var sinkless []int
	for _, n := range nl.Nets {
		if n.FanoutCount() == 0 {
			sinkless = append(sinkless, n.ID)
		}
	}
	rng.Shuffle(len(sinkless), func(i, j int) { sinkless[i], sinkless[j] = sinkless[j], sinkless[i] })
	used := map[int]bool{}
	po := 0
	for _, id := range sinkless {
		if po >= s.POs {
			// Remaining sinkless nets still need a reader: make them POs
			// too (real designs have no dangling nets). This may push the
			// PO count slightly above spec, which the experiments tolerate.
			nl.AddPO(name("po", po), id)
			po++
			continue
		}
		nl.AddPO(name("po", po), id)
		used[id] = true
		po++
	}
	for po < s.POs {
		id := nl.Nets[rng.Intn(nl.NumNets())].ID
		if used[id] || nl.Nets[id].IsPI() {
			// Avoid trivial or duplicate POs when possible.
			id = nl.Gates[rng.Intn(nl.NumGates())].Out
			if used[id] {
				continue
			}
		}
		used[id] = true
		nl.AddPO(name("po", po), id)
		po++
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated netlist invalid: %v", err)
	}
	if nl.HasCombLoop() {
		return nil, fmt.Errorf("bench: generated netlist has a loop (bug)")
	}
	nl.Compact()
	return nl, nil
}

// Multiplier builds an n x n unsigned carry-save array multiplier from AND
// gates and full adders — the actual structure of ISCAS-85 c6288 (n=16).
func Multiplier(name string, n int) *netlist.Netlist {
	nl := netlist.New(name)
	a := make([]int, n)
	b := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = nl.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		b[i] = nl.AddPI(fmt.Sprintf("b%d", i))
	}
	// Partial products pp[i][j] = a[i] & b[j].
	pp := make([][]int, n)
	for i := range pp {
		pp[i] = make([]int, n)
		for j := range pp[i] {
			g := nl.AddGate(fmt.Sprintf("pp_%d_%d", i, j), netlist.And, a[i], b[j])
			pp[i][j] = nl.Gates[g].Out
		}
	}
	// halfAdder returns (sum, carry).
	ha := func(tag string, x, y int) (int, int) {
		s := nl.AddGate("ha_s_"+tag, netlist.Xor, x, y)
		c := nl.AddGate("ha_c_"+tag, netlist.And, x, y)
		return nl.Gates[s].Out, nl.Gates[c].Out
	}
	// fullAdder returns (sum, carry).
	fa := func(tag string, x, y, z int) (int, int) {
		s1 := nl.AddGate("fa_s1_"+tag, netlist.Xor, x, y)
		s := nl.AddGate("fa_s_"+tag, netlist.Xor, nl.Gates[s1].Out, z)
		c1 := nl.AddGate("fa_c1_"+tag, netlist.And, x, y)
		c2 := nl.AddGate("fa_c2_"+tag, netlist.And, nl.Gates[s1].Out, z)
		c := nl.AddGate("fa_c_"+tag, netlist.Or, nl.Gates[c1].Out, nl.Gates[c2].Out)
		return nl.Gates[s].Out, nl.Gates[c].Out
	}
	// Carry-save reduction, row by row.
	sum := make([]int, n)   // running sums per column offset within row
	carry := make([]int, n) // running carries
	for j := 0; j < n; j++ {
		sum[j] = pp[0][j]
		carry[j] = -1
	}
	outs := make([]int, 0, 2*n)
	outs = append(outs, sum[0]) // product bit 0
	for i := 1; i < n; i++ {
		newSum := make([]int, n)
		newCarry := make([]int, n)
		for j := 0; j < n; j++ {
			x := pp[i][j]
			var y int
			if j+1 < n {
				y = sum[j+1]
			} else {
				y = -1
			}
			z := carry[j]
			tag := fmt.Sprintf("%d_%d", i, j)
			switch {
			case y >= 0 && z >= 0:
				newSum[j], newCarry[j] = fa(tag, x, y, z)
			case y >= 0:
				newSum[j], newCarry[j] = ha(tag, x, y)
			case z >= 0:
				newSum[j], newCarry[j] = ha(tag, x, z)
			default:
				newSum[j], newCarry[j] = x, -1
			}
		}
		sum, carry = newSum, newCarry
		outs = append(outs, sum[0]) // product bit i
	}
	// Final ripple over remaining sum/carry columns.
	var c int = -1
	for j := 1; j < n; j++ {
		tag := fmt.Sprintf("f_%d", j)
		x := sum[j]
		y := carry[j-1]
		switch {
		case y >= 0 && c >= 0:
			x, c = fa(tag, x, y, c)
		case y >= 0:
			x, c = ha(tag, x, y)
		case c >= 0:
			x, c = ha(tag, x, c)
		}
		outs = append(outs, x)
	}
	if c >= 0 {
		outs = append(outs, c)
	} else if carry[n-1] >= 0 {
		outs = append(outs, carry[n-1])
	}
	for i, net := range outs {
		nl.AddPO(fmt.Sprintf("p%d", i), net)
	}
	// Give any net that still has no reader a PO so nothing dangles.
	for _, nn := range nl.Nets {
		if nn.FanoutCount() == 0 {
			nl.AddPO("po_x_"+nn.Name, nn.ID)
		}
	}
	nl.Compact()
	return nl
}
