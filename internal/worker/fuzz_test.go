package worker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader. Whatever
// a dying or hostile peer sends — truncated frames, corrupt length
// prefixes, garbage types — ReadFrameCRC must fail cleanly or return a
// payload that re-encodes to exactly the bytes it consumed; it must never
// panic and never hand back more bytes than arrived.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrameCRC(&valid, MsgHello, []byte("spec payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:3]) // torn header
	f.Add(valid.Bytes()[:6]) // torn body
	f.Add([]byte{})          // clean EOF
	f.Add(make([]byte, 4))   // zero-length claim
	lying := make([]byte, 8) // prefix claims more than MaxFrame
	binary.LittleEndian.PutUint32(lying, MaxFrame+1)
	f.Add(lying)
	var big bytes.Buffer // body spanning multiple chunks
	if err := WriteFrameCRC(&big, MsgVerdict, make([]byte, readChunk+64)); err != nil {
		f.Fatal(err)
	}
	f.Add(big.Bytes())

	f.Fuzz(checkReadFrame)
}

// FuzzReadFrameCRC feeds the frame reader the streams chaos (or reality)
// makes of intact frames by flipping bytes. Beyond FuzzReadFrame's
// obligations, any frame it accepts must carry a checksum that matches its
// bytes: the corpus seeds corrupt-CRC frames (one bit flipped anywhere),
// truncated bodies, and replayed/concatenated frames, and the property
// re-encodes accepted frames to prove the reader consumed exactly one
// intact frame.
func FuzzReadFrameCRC(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrameCRC(&valid, MsgVerdict, []byte("verdict payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Corrupt-CRC corpus: every byte position of a valid frame flipped.
	for i := 4; i < valid.Len(); i++ {
		bad := append([]byte(nil), valid.Bytes()...)
		bad[i] ^= 0x40
		f.Add(bad)
	}
	f.Add(valid.Bytes()[:3])                       // torn header
	f.Add(valid.Bytes()[:7])                       // truncated body
	f.Add(valid.Bytes()[:valid.Len()-2])           // truncated checksum
	f.Add(append(valid.Bytes(), valid.Bytes()...)) // replayed frame
	short := make([]byte, 4+3)                     // body shorter than a checksum
	binary.LittleEndian.PutUint32(short, 3)
	f.Add(short)
	// Federation-plane frames (the fabric's telemetry snapshot and trace
	// types, MsgFabric+4 and MsgFabric+5) ride this framing too; their payload layouts are
	// hand-rolled here because the fabric package sits above this one.
	snap := binary.LittleEndian.AppendUint64(nil, 1722000000000000) // sent-us
	snap = binary.LittleEndian.AppendUint32(snap, 1)                // entry count
	snap = binary.LittleEndian.AppendUint16(snap, 5)                // name length
	snap = append(snap, "units"...)
	snap = binary.LittleEndian.AppendUint64(snap, 42) // value
	var fedSnap bytes.Buffer
	if err := WriteFrameCRC(&fedSnap, MsgFabric+4, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(fedSnap.Bytes())
	ev := binary.LittleEndian.AppendUint64(nil, 1722000000000000) // sent-us
	ev = binary.LittleEndian.AppendUint32(ev, 1)                  // event count
	ev = binary.LittleEndian.AppendUint64(ev, 1722000000000001)   // t-us
	ev = binary.LittleEndian.AppendUint64(ev, 99)                 // dur-us
	ev = binary.LittleEndian.AppendUint32(ev, 5)                  // unit
	ev = binary.LittleEndian.AppendUint32(ev, 2)                  // case
	ev = binary.LittleEndian.AppendUint32(ev, 1)                  // worker
	for _, s := range []string{"executed", "tritype", "MFC-1", "crash", ""} {
		ev = binary.LittleEndian.AppendUint16(ev, uint16(len(s)))
		ev = append(ev, s...)
	}
	var fedTrace bytes.Buffer
	if err := WriteFrameCRC(&fedTrace, MsgFabric+5, ev); err != nil {
		f.Fatal(err)
	}
	f.Add(fedTrace.Bytes())
	f.Add([]byte{})

	f.Fuzz(checkReadFrame)
}

// checkReadFrame is the property both frame fuzzers hold ReadFrameCRC to.
func checkReadFrame(t *testing.T, data []byte) {
	typ, payload, err := ReadFrameCRC(bytes.NewReader(data))
	if err != nil {
		return
	}
	if 9+len(payload) > len(data) {
		t.Fatalf("ReadFrameCRC returned %d payload bytes from a %d-byte stream", len(payload), len(data))
	}
	var re bytes.Buffer
	if werr := WriteFrameCRC(&re, typ, payload); werr != nil {
		t.Fatalf("accepted frame does not re-encode: %v", werr)
	}
	if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
		t.Fatalf("re-encoded frame differs from the consumed prefix")
	}
}

// TestReadFrameCRCRejectsEveryBitFlip is the deterministic core of the
// poisoned-frame story: flipping any single bit anywhere in a CRC frame's
// type, payload or checksum must be detected. (Length-prefix flips are
// covered separately: they change how many bytes are consumed, so they
// surface as torn frames or checksum mismatches depending on direction.)
func TestReadFrameCRCRejectsEveryBitFlip(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteFrameCRC(&valid, MsgExec, []byte("unit 12345")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < valid.Len(); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), valid.Bytes()...)
			bad[i] ^= 1 << bit
			_, _, err := ReadFrameCRC(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// And the pristine frame still reads.
	typ, payload, err := ReadFrameCRC(bytes.NewReader(valid.Bytes()))
	if err != nil || typ != MsgExec || string(payload) != "unit 12345" {
		t.Fatalf("pristine CRC frame: typ=%d payload=%q err=%v", typ, payload, err)
	}
}

// TestReadFrameCRCErrorIdentity: corrupt frames must be distinguishable
// from torn ones — the fabric reconnects on ErrFrameCRC and counts it.
func TestReadFrameCRCErrorIdentity(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteFrameCRC(&valid, MsgReady, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), valid.Bytes()...)
	bad[6] ^= 0x01
	_, _, err := ReadFrameCRC(bytes.NewReader(bad))
	if !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("corrupt frame error = %v, want ErrFrameCRC", err)
	}
	if _, _, err := ReadFrameCRC(bytes.NewReader(valid.Bytes()[:5])); errors.Is(err, ErrFrameCRC) {
		t.Fatal("torn frame misreported as a checksum mismatch")
	}
}

// TestReadFrameAllocationBound pins the chunked-allocation property the
// fuzz target cannot observe directly: a length prefix claiming MaxFrame on
// a connection that then dies costs at most a chunk or so of memory, not
// the 16MB the prefix promised.
func TestReadFrameAllocationBound(t *testing.T) {
	torn := make([]byte, 4, 4+readChunk/2)
	binary.LittleEndian.PutUint32(torn, MaxFrame)
	torn = append(torn, make([]byte, readChunk/2)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := ReadFrameCRC(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn frame read succeeded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*readChunk {
		t.Fatalf("torn MaxFrame claim allocated %d bytes, want at most %d", got, 4*readChunk)
	}
}
