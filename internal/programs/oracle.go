// Package programs contains the target-program suite of the reproduction:
// several independently-designed implementations of the Camelot and JamesB
// contest problems plus the SOR solver, written in the mini-C dialect of
// internal/cc, together with Go reference oracles for their specifications
// and the registry of real software faults seeded in them.
//
// The suite mirrors the properties the paper's §4.2/§6.2 program set was
// chosen for: a formal, correct specification; several implementations of
// the same spec differing in algorithm, recursion, data structures and code
// size; and known real faults characterised by their corrective source
// diff, each classified with ODC.
package programs

import (
	"fmt"
	"strconv"
)

// Input is one program input: the integer stream consumed by read_int and
// the byte stream consumed by read_char.
type Input struct {
	Ints  []int32
	Bytes []byte
}

// --- Camelot specification -------------------------------------------------
//
// An 8x8 chessboard holds one king and n knights (0 <= n <= 63). All pieces
// must gather on a single square. Knights move as chess knights; the king
// moves one step in any of the 8 directions. A knight may pick up the king
// by moving onto the king's current square (or starting there); from then on
// they move together as one knight. The cost is the total number of moves.
// Input: n, kingX, kingY, then n knight coordinate pairs (all 0..7).
// Output: the minimum total number of moves, as one integer line.

// chebyshev is the king's walking distance.
func chebyshev(x1, y1, x2, y2 int32) int32 {
	dx := x1 - x2
	if dx < 0 {
		dx = -dx
	}
	dy := y1 - y2
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// knightMoves are the eight knight displacement vectors.
var knightMoves = [8][2]int32{
	{1, 2}, {2, 1}, {2, -1}, {1, -2},
	{-1, -2}, {-2, -1}, {-2, 1}, {-1, 2},
}

// knightDistances returns the all-pairs knight-move distances on the 8x8
// board, indexed by square = x*8+y.
func knightDistances() [64][64]int32 {
	var kd [64][64]int32
	for src := int32(0); src < 64; src++ {
		var dist [64]int32
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int32{src}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			x, y := s/8, s%8
			for _, mv := range knightMoves {
				nx, ny := x+mv[0], y+mv[1]
				if nx < 0 || nx > 7 || ny < 0 || ny > 7 {
					continue
				}
				ns := nx*8 + ny
				if dist[ns] == -1 {
					dist[ns] = dist[s] + 1
					queue = append(queue, ns)
				}
			}
		}
		kd[src] = dist
	}
	return kd
}

var kdTable = knightDistances()

// CamelotSolve is the reference oracle for the Camelot specification. It
// returns the program's expected output for the given input stream.
//
// An optimal schedule either has the king walk to the gathering square g,
// costing sumK(g) + kingDist(g) with sumK(g) the knights' summed distances
// to g, or has one knight kn detour through a pickup square p, costing
// sumK(g) - kd[kn][g] + kd[kn][p] + kingDist(p) + kd[p][g]. Rather than
// scanning all 64 x n x 64 detours, the search prunes two ways, both
// exact. Knight distances are shortest-path distances, so
// kd[kn][p] + kd[p][g] >= kd[kn][g] and every schedule gathering at g costs
// at least sumK(g) + kingDist(p) for its pickup square p (p = g for the
// walk). A square g with sumK(g) >= best is therefore skipped, and the
// pickup squares are scanned in order of nondecreasing kingDist(p),
// stopping at the first with sumK(g) + kingDist(p) >= best: no later one
// can beat best.
func CamelotSolve(in Input) (string, error) {
	ints := in.Ints
	if len(ints) < 3 {
		return "", fmt.Errorf("camelot: input needs at least 3 ints, got %d", len(ints))
	}
	n := ints[0]
	if n < 0 || n > 63 {
		return "", fmt.Errorf("camelot: bad knight count %d", n)
	}
	if len(ints) < int(3+2*n) {
		return "", fmt.Errorf("camelot: input needs %d ints, got %d", 3+2*n, len(ints))
	}
	kx, ky := ints[1], ints[2]
	var buf [63]int32
	knights := buf[:n]
	var sumK [64]int32 // sumK[g]: the knights' summed distances to g
	for i := range knights {
		x, y := ints[3+2*i], ints[4+2*i]
		if x < 0 || x > 7 || y < 0 || y > 7 {
			return "", fmt.Errorf("camelot: knight %d off board (%d,%d)", i, x, y)
		}
		knights[i] = x*8 + y
		for g, d := range &kdTable[knights[i]] {
			sumK[g] += d
		}
	}

	var kingDist [64]int32
	for p := range kingDist {
		kingDist[p] = chebyshev(kx, ky, int32(p)/8, int32(p)%8)
	}
	order, prune := pickupOrder(kx, ky, &kingDist)

	const inf = int32(1 << 29)
	best := inf
	for g := int32(0); g < 64; g++ {
		s := sumK[g]
		if prune && s >= best {
			continue
		}
		if total := s + kingDist[g]; total < best {
			best = total
		}
		// One knight detours through pickup square p to carry the king.
		for _, p := range order {
			c := kingDist[p]
			if prune && s+c >= best {
				break
			}
			for _, kn := range knights {
				if t := s - kdTable[kn][g] + kdTable[kn][p] + c + kdTable[p][g]; t < best {
					best = t
				}
			}
		}
	}
	return strconv.Itoa(int(best)) + "\n", nil
}

// pickupOrder lists the 64 squares in order of nondecreasing king distance,
// by a counting sort over the king's possible distances 0..7. The input
// format does not keep the king on the board, and an off-board king's
// distances can wrap the int32 sums, where the pruning bound no longer
// holds; such a king gets the identity order and prune = false, so
// CamelotSolve scans every schedule exactly as the exhaustive search does.
func pickupOrder(kx, ky int32, kingDist *[64]int32) (order [64]int32, prune bool) {
	if kx < 0 || kx > 7 || ky < 0 || ky > 7 {
		for p := range order {
			order[p] = int32(p)
		}
		return order, false
	}
	var next [9]int32 // next[d]: first free slot of distance d
	for _, d := range kingDist {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	for p, d := range kingDist {
		order[next[d]] = int32(p)
		next[d]++
	}
	return order, true
}

// --- JamesB specification ---------------------------------------------------
//
// Strings are codified under a seed: letters rotate within their case by
// (seed + 7*i) mod 26 at position i (0-based, mathematically non-negative
// modulus); other characters pass through. Input: the seed and the string
// length as integers, then the string bytes on the character stream.
// Output: the codified string followed by a newline.

// JamesBSolve is the reference oracle for the JamesB specification.
func JamesBSolve(in Input) (string, error) {
	if len(in.Ints) < 2 {
		return "", fmt.Errorf("jamesb: input needs 2 ints, got %d", len(in.Ints))
	}
	seed := in.Ints[0]
	length := in.Ints[1]
	if length < 0 || int(length) > len(in.Bytes) {
		return "", fmt.Errorf("jamesb: bad length %d for %d bytes", length, len(in.Bytes))
	}
	out := make([]byte, 0, length+1)
	for i := int32(0); i < length; i++ {
		c := in.Bytes[i]
		shift := (seed + 7*i) % 26
		if shift < 0 {
			shift += 26
		}
		switch {
		case c >= 'a' && c <= 'z':
			c = byte('a' + (int32(c-'a')+shift)%26)
		case c >= 'A' && c <= 'Z':
			c = byte('A' + (int32(c-'A')+shift)%26)
		}
		out = append(out, c)
	}
	out = append(out, '\n')
	return string(out), nil
}

// --- SOR specification --------------------------------------------------------
//
// Red-black successive over-relaxation for the Laplace equation on an 18x18
// grid (16x16 interior) in fixed-point arithmetic (values scaled by 16).
// The four borders are held at the given boundary values (0..1000, scaled
// internally); the interior starts at zero. Each iteration performs one red
// and one black Gauss-Seidel sweep with omega = 1.5 applied as
// new = old + 3*(avg4 - old)/2 in integer arithmetic, then records the
// residual (sum of |avg4 - cell| over the interior). After the given
// number of iterations the program prints, one integer per line: the
// interior row-major (256 lines), the per-iteration residual history, the
// interior minimum, maximum and integer mean, a checksum
// (acc = (acc*31 + cell) mod 1000003 over the interior), and the final
// residual.
//
// The paper ran SOR as a parallel program on four CPUs; the red-black
// ordering is what made it parallelisable, and this reproduction keeps the
// red-black sweeps (hence the identical data-access pattern) in a single
// thread of execution, split across two half-grid worker bands. See
// DESIGN.md for the substitution rationale.

// SOR grid geometry and scaling.
const (
	SORSize  = 18 // including boundary
	SORScale = 16
)

// SORSolve is the reference oracle for the SOR specification.
func SORSolve(in Input) (string, error) {
	if len(in.Ints) < 5 {
		return "", fmt.Errorf("sor: input needs 5 ints, got %d", len(in.Ints))
	}
	iters := in.Ints[0]
	top, bottom, left, right := in.Ints[1], in.Ints[2], in.Ints[3], in.Ints[4]
	if iters < 0 || iters > 64 {
		return "", fmt.Errorf("sor: bad iteration count %d", iters)
	}
	var g [SORSize][SORSize]int32
	for j := 0; j < SORSize; j++ {
		g[0][j] = top * SORScale
		g[SORSize-1][j] = bottom * SORScale
	}
	for i := 0; i < SORSize; i++ {
		g[i][0] = left * SORScale
		g[i][SORSize-1] = right * SORScale
	}
	avg4 := func(i, j int32) int32 {
		return (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1]) / 4
	}
	sweep := func(parity int32) {
		for i := int32(1); i < SORSize-1; i++ {
			for j := int32(1); j < SORSize-1; j++ {
				if (i+j)%2 != parity {
					continue
				}
				avg := avg4(i, j)
				g[i][j] = g[i][j] + 3*(avg-g[i][j])/2
			}
		}
	}
	residual := func() int32 {
		var sum int32
		for i := int32(1); i < SORSize-1; i++ {
			for j := int32(1); j < SORSize-1; j++ {
				d := avg4(i, j) - g[i][j]
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		return sum
	}
	history := make([]int32, 0, iters)
	for it := int32(0); it < iters; it++ {
		sweep(0)
		sweep(1)
		history = append(history, residual())
	}

	var out []byte
	emit := func(v int32) {
		out = strconv.AppendInt(out, int64(v), 10)
		out = append(out, '\n')
	}
	min, max := g[1][1], g[1][1]
	var sum, checksum int32
	for i := 1; i < SORSize-1; i++ {
		for j := 1; j < SORSize-1; j++ {
			v := g[i][j]
			emit(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
			checksum = (checksum*31 + v) % 1000003
		}
	}
	for _, r := range history {
		emit(r)
	}
	emit(min)
	emit(max)
	emit(sum / 256)
	emit(checksum)
	emit(residual())
	return string(out), nil
}
