package programs

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// camelotBruteForce is the original exhaustive Camelot oracle: for every
// gathering square g it tries every knight as the king's carrier and every
// pickup square p, 64 x n x 64 candidate schedules. It is the reference
// the pruned CamelotSolve is checked against.
func camelotBruteForce(in Input) (string, error) {
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
	knights := make([]int32, n)
	for i := int32(0); i < n; i++ {
		x, y := ints[3+2*i], ints[4+2*i]
		if x < 0 || x > 7 || y < 0 || y > 7 {
			return "", fmt.Errorf("camelot: knight %d off board (%d,%d)", i, x, y)
		}
		knights[i] = x*8 + y
	}

	const inf = int32(1 << 29)
	best := inf
	for g := int32(0); g < 64; g++ {
		gx, gy := g/8, g%8
		kingWalk := chebyshev(kx, ky, gx, gy)
		sumK := int32(0)
		for _, kn := range knights {
			sumK += kdTable[kn][g]
		}
		if total := sumK + kingWalk; total < best {
			best = total
		}
		// One knight detours through pickup square p to carry the king.
		for _, kn := range knights {
			for p := int32(0); p < 64; p++ {
				px, py := p/8, p%8
				t := sumK - kdTable[kn][g] + kdTable[kn][p] + chebyshev(kx, ky, px, py) + kdTable[p][g]
				if t < best {
					best = t
				}
			}
		}
	}
	return strconv.Itoa(int(best)) + "\n", nil
}

// checkCamelot compares CamelotSolve with the brute-force reference,
// errors included.
func checkCamelot(t *testing.T, in Input) {
	t.Helper()
	got, gotErr := CamelotSolve(in)
	want, wantErr := camelotBruteForce(in)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Fatalf("CamelotSolve(%v) = %q, %v; brute force = %q, %v", in.Ints, got, gotErr, want, wantErr)
	}
}

// TestCamelotSolveExhaustiveSmall checks every king square with no knight
// and with one knight on every square, plus kings off the board, which the
// input format does not rule out.
func TestCamelotSolveExhaustiveSmall(t *testing.T) {
	for k := int32(0); k < 64; k++ {
		checkCamelot(t, Input{Ints: []int32{0, k / 8, k % 8}})
		for kn := int32(0); kn < 64; kn++ {
			checkCamelot(t, Input{Ints: []int32{1, k / 8, k % 8, kn / 8, kn % 8}})
		}
	}
	for _, king := range [][2]int32{{-1, 3}, {8, 8}, {-40, 100}, {1 << 30, 2}, {-1 << 31, 5}, {1<<31 - 1, 1<<31 - 1}} {
		for kn := int32(0); kn < 64; kn += 7 {
			checkCamelot(t, Input{Ints: []int32{1, king[0], king[1], kn / 8, kn % 8}})
			checkCamelot(t, Input{Ints: []int32{2, king[0], king[1], kn / 8, kn % 8, 7 - kn/8, 3}})
		}
	}
}

// TestCamelotSolveRandom checks seeded random inputs with 0..63 knights.
func TestCamelotSolveRandom(t *testing.T) {
	count := 20000
	if testing.Short() {
		count = 2000
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < count; i++ {
		n := int32(rng.Intn(64))
		ints := []int32{n, int32(rng.Intn(8)), int32(rng.Intn(8))}
		for j := int32(0); j < n; j++ {
			ints = append(ints, int32(rng.Intn(8)), int32(rng.Intn(8)))
		}
		checkCamelot(t, Input{Ints: ints})
	}
}

// FuzzCamelotSolve decodes arbitrary bytes into a valid input — the first
// byte picks the knight count (0..63), the following bytes, reused
// cyclically, the king's square and then each knight's — and compares
// CamelotSolve with the brute-force reference.
func FuzzCamelotSolve(f *testing.F) {
	f.Add([]byte{0, 27})
	f.Add([]byte{1, 18, 18})
	f.Add([]byte{3, 0, 63, 7, 56})
	f.Add([]byte{63, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int32(data[0] % 64)
		sq := func(i int32) int32 { return int32(data[1+int(i)%(len(data)-1)] % 64) }
		ints := []int32{n, sq(0) / 8, sq(0) % 8}
		for i := int32(1); i <= n; i++ {
			ints = append(ints, sq(i)/8, sq(i)%8)
		}
		checkCamelot(t, Input{Ints: ints})
	})
}
