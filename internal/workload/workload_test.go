package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/programs"
	"repro/internal/workload"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range []programs.Kind{programs.KindCamelot, programs.KindJamesB, programs.KindSOR} {
		a, err := workload.Generate(kind, 20, 7)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, err := workload.Generate(kind, 20, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 20 {
			t.Fatalf("%v: got %d cases", kind, len(a))
		}
		for i := range a {
			if a[i].Golden != b[i].Golden {
				t.Fatalf("%v case %d differs between identical seeds", kind, i)
			}
			if len(a[i].Golden) == 0 {
				t.Errorf("%v case %d has empty golden output", kind, i)
			}
		}
		c, err := workload.Generate(kind, 20, 8)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i].Golden != c[i].Golden {
				same = false
			}
		}
		if same {
			t.Errorf("%v: different seeds produced identical cases", kind)
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, err := workload.Generate(programs.Kind(99), 1, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCamelotInputsWellFormed(t *testing.T) {
	cases, err := workload.Generate(programs.KindCamelot, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	sawZero, sawMax := false, false
	for _, c := range cases {
		ints := c.Input.Ints
		n := ints[0]
		if n < 0 || n > 8 {
			t.Fatalf("knight count %d out of range", n)
		}
		if n == 0 {
			sawZero = true
		}
		if n == 8 {
			sawMax = true
		}
		if len(ints) != int(3+2*n) {
			t.Fatalf("input length %d for n=%d", len(ints), n)
		}
		for _, v := range ints[1:] {
			if v < 0 || v > 7 {
				t.Fatalf("coordinate %d off board", v)
			}
		}
	}
	if !sawZero || !sawMax {
		t.Errorf("knight counts not spread (zero=%v max=%v)", sawZero, sawMax)
	}
}

func TestJamesBInputDistribution(t *testing.T) {
	cases, err := workload.Generate(programs.KindJamesB, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	neg, max80 := 0, 0
	for _, c := range cases {
		seed, length := c.Input.Ints[0], c.Input.Ints[1]
		if int(length) != len(c.Input.Bytes) {
			t.Fatalf("length %d but %d bytes", length, len(c.Input.Bytes))
		}
		if length < 1 || length > 80 {
			t.Fatalf("length %d out of range", length)
		}
		if seed < 0 {
			neg++
		}
		if length == 80 {
			max80++
		}
		for _, b := range c.Input.Bytes {
			if b == 0 || b < 32 || b > 126 {
				t.Fatalf("non-printable byte %d in input", b)
			}
		}
	}
	// The distribution is tuned for the Table 1 rarities: ~2% negative
	// seeds, ~1% maximum-length strings.
	if neg < 50 || neg > 200 {
		t.Errorf("negative seeds = %d of 5000, want ~100", neg)
	}
	if max80 < 10 || max80 > 120 {
		t.Errorf("length-80 strings = %d of 5000, want ~50", max80)
	}
}

func TestSORInputsWellFormed(t *testing.T) {
	cases, err := workload.Generate(programs.KindSOR, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		ints := c.Input.Ints
		if len(ints) != 5 {
			t.Fatalf("sor input has %d ints", len(ints))
		}
		if ints[0] < 4 || ints[0] > 12 {
			t.Fatalf("iterations %d out of range", ints[0])
		}
		for _, b := range ints[1:] {
			if b < 0 || b > 1000 {
				t.Fatalf("boundary %d out of range", b)
			}
		}
	}
}

func TestContestCases(t *testing.T) {
	for _, kind := range []programs.Kind{programs.KindCamelot, programs.KindJamesB, programs.KindSOR} {
		cases, err := workload.ContestCases(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(cases) != workload.ContestCaseCount {
			t.Errorf("%v: %d contest cases, want %d", kind, len(cases), workload.ContestCaseCount)
		}
	}
}

// TestCamelotGoldenDigests pins the oracle outputs of the two Camelot case
// sets the experiments use: the Table 1 intensive test and the §6 300-case
// set. The digests were computed with the brute-force oracle, so any change
// to the oracle or the input generator that alters an answer fails here.
func TestCamelotGoldenDigests(t *testing.T) {
	for _, tt := range []struct {
		n    int
		seed int64
		want string
	}{
		{60, 2099, "5b60ed4e509667c63d0bde27ee559298acff84f3609a22a223c18f43a03f9848"},
		{300, 2000, "947e5e8427b6933609c1e421d2e092297f675a24925708e08be6a373abad9abc"},
	} {
		cases, err := workload.Generate(programs.KindCamelot, tt.n, tt.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, c := range cases {
			h.Write([]byte(c.Golden))
			h.Write([]byte{0})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tt.want {
			t.Errorf("Generate(Camelot, %d, %d) golden digest %s, want %s", tt.n, tt.seed, got, tt.want)
		}
	}
}
