package vm

import "testing"

// TestChecksumDetectsTamper flips every bit of every carried page, and a
// bit of the header state, and requires each flip to change the checksum:
// the degraded-mode fast-forward relies on Verify catching any such
// corruption of a retained snapshot.
func TestChecksumDetectsTamper(t *testing.T) {
	s := &Snapshot{
		pc:      0x100,
		cycles:  12345,
		input:   []int32{1, -2, 3},
		output:  []byte("out"),
		pages:   map[uint32][]byte{3: make([]byte, pageSize), 9: make([]byte, pageSize)},
		memSize: 64 << 10,
	}
	for i := range s.pages[9] {
		s.pages[9][i] = byte(i * 7)
	}
	sum := s.Checksum()
	for pi, pg := range s.pages {
		for i := range pg {
			for bit := 0; bit < 8; bit++ {
				pg[i] ^= 1 << bit
				if s.Checksum() == sum {
					t.Fatalf("flipping bit %d of byte %d of page %d went undetected", bit, i, pi)
				}
				pg[i] ^= 1 << bit
			}
		}
	}

	// The same bytes carried at another address are other state.
	s.pages[4], s.pages[9] = s.pages[9], nil
	delete(s.pages, 9)
	if s.Checksum() == sum {
		t.Fatal("moving a page to another address went undetected")
	}
	s.pages[9] = s.pages[4]
	delete(s.pages, 4)
	if s.Checksum() != sum {
		t.Fatal("checksum not restored with the state")
	}

	for name, tamper := range map[string]func(){
		"register": func() { s.regs[5] ^= 1 },
		"cycles":   func() { s.cycles ^= 1 << 40 },
		"input":    func() { s.input[1] ^= 1 },
		"output":   func() { s.output[2] ^= 1 },
	} {
		tamper()
		if s.Checksum() == sum {
			t.Fatalf("tampering with the %s went undetected", name)
		}
		tamper()
	}
	if s.Checksum() != sum {
		t.Fatal("checksum not restored with the state")
	}
}
