// Package worker is the out-of-process execution sandbox of the campaign
// layer: units run in supervised worker subprocesses that speak a
// length-prefixed, versioned binary protocol over stdin/stdout, so a hard
// host failure — an OS OOM-kill, a runaway allocation, a stuck syscall —
// costs one worker process and a redelivery of the units it had in flight,
// never the campaign.
//
// The package has two halves. Serve is the worker side: a re-exec'd binary
// (swifi -worker-mode and friends) reads a Spec, builds a Runner from it,
// and answers unit-execution requests until told to shut down, heartbeating
// the whole time. Pool is the supervisor side: it owns a fleet of worker
// processes and enforces the robustness policy — heartbeat and wall-clock
// deadlines, restart with exponential backoff, at-most-N redelivery before
// a unit is quarantined, and a circuit breaker that gives up on process
// isolation when worker churn shows the host cannot sustain it.
//
// The wire protocol, version 2 (all integers little-endian):
//
//	frame    length u32 | type u8 | payload | crc32 u32
//	         (length counts type+payload+crc; crc32 is IEEE over type+payload)
//
//	hello    version u16 | heartbeat-ms u32 | mem-quota u64 |
//	         fingerprint u64 | kind-len u16 | kind | spec-len u32 | spec
//	ready    version u16 | fingerprint u64 | units u32
//	exec     unit u32
//	verdict  unit u32 | mode u8 | flags u8 | last u8 | payload-len u32 | payload
//	heartbeat (empty)
//	shutdown  (empty)
//	error    message (UTF-8)
//
// The supervisor opens with hello; the worker answers ready after building
// its Runner, echoing the negotiated version and the fingerprint of the
// plan it reconstructed — a supervisor whose fingerprint differs is talking
// to a worker from a different build or configuration and must not trust
// its unit numbering. Verdict mode/flags use the journal.Outcome wire
// encoding, so a verdict appends to a campaign journal byte-for-byte. A
// verdict with last set is the worker's final answer (it recycles itself —
// e.g. its RSS crossed the memory quota) and the supervisor respawns it
// without penalty.
//
// Delivery is pipelined: the supervisor keeps a window of exec frames in
// flight per worker and the worker answers them strictly in order,
// coalescing its verdict frames into few writes (Serve documents the
// flush rules, poolRun.orphan the crash attribution). The frames
// themselves are the same as for a lock-step exchange.
//
// Frames above MaxFrame, unknown types, short reads, and checksum
// mismatches are protocol errors: the supervisor kills the worker
// and redelivers. Version 2 put the trailing CRC on the pipe frames too
// (version 1 had it only on the fabric's TCP framing), so a corrupted or
// torn frame severs and restarts the worker through the ordinary
// redelivery machinery instead of desynchronizing the stream — stdin and
// stdout are byte streams like any other, and the chaos plane now abuses
// them like any other.
package worker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/journal"
)

const (
	// ProtocolVersion is the frame-format version sent in hello and echoed
	// in ready, so a mixed-build supervisor/worker pair fails the handshake
	// instead of mis-parsing frames. Version 2 adopted the CRC-framed wire
	// format on the pipes (the fabric already spoke it on TCP).
	ProtocolVersion = 2

	// MaxFrame bounds any frame's length prefix. A frame claiming more is
	// garbage (a worker writing junk to stdout, a supervisor reading from
	// the wrong process) and is rejected before any allocation.
	MaxFrame = 16 << 20
)

// Message types.
const (
	msgHello uint8 = 1 + iota
	msgReady
	msgExec
	msgVerdict
	msgHeartbeat
	msgShutdown
	msgError
)

// Spec tells a worker what work it will be asked to execute. Kind selects
// the runner factory branch (each binary registers the kinds it can serve);
// Payload is kind-specific (JSON in practice) and must fully determine the
// unit numbering, because supervisor and worker derive it independently;
// Fingerprint is the supervisor's hash of that numbering, which the worker
// must reproduce for the handshake to succeed.
type Spec struct {
	Kind        string
	Fingerprint uint64
	Payload     []byte
}

// hello is the supervisor's opening frame.
type hello struct {
	Version           uint16
	HeartbeatInterval time.Duration
	MemQuota          uint64
	Spec              Spec
}

// ready is the worker's handshake answer.
type ready struct {
	Version     uint16
	Fingerprint uint64
	Units       uint32
}

// verdict is one completed unit.
type verdict struct {
	Unit    uint32
	Outcome journal.Outcome
	Last    bool // the worker exits after this verdict (self-recycle)
	Payload []byte
}

// WriteFrame emits one frame. Callers serialise writes themselves. It is
// exported because internal/fabric speaks the same frame format over TCP.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("worker: frame type %d overflows MaxFrame (%d bytes)", typ, len(payload))
	}
	buf := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(1+len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// readChunk bounds how much ReadFrame allocates ahead of the bytes that
// have actually arrived.
const readChunk = 64 << 10

// ReadFrame reads one frame, rejecting empty and oversized length prefixes.
// The payload buffer grows in chunks as bytes arrive instead of trusting
// the length prefix up front, so a corrupt prefix on a dying peer costs at
// most one chunk, never MaxFrame.
func ReadFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("worker: bad frame length %d", n)
	}
	size := n
	if size > readChunk {
		size = readChunk
	}
	buf := make([]byte, size)
	read := 0
	for {
		m, rerr := io.ReadFull(r, buf[read:])
		read += m
		if rerr != nil {
			if rerr == io.EOF {
				// A frame header with no body is torn, not a clean end.
				rerr = io.ErrUnexpectedEOF
			}
			return 0, nil, rerr
		}
		if read == n {
			return buf[0], buf[1:], nil
		}
		grow := n - read
		if grow > readChunk {
			grow = readChunk
		}
		buf = append(buf, make([]byte, grow)...)
	}
}

// ErrFrameCRC marks a frame whose trailing checksum did not match its
// bytes: the frame was poisoned in transit (a corrupting link, a hostile
// peer, a torn TCP segment boundary). Receivers that can re-establish their
// connection — the fabric — treat it as a connection failure, not a
// protocol error: the sender is healthy, the link is not.
var ErrFrameCRC = errors.New("worker: frame checksum mismatch")

// WriteFrameCRC emits one CRC-protected frame: the plain frame layout with
// a trailing IEEE CRC32 over type+payload. Both transports speak it — the
// fabric on TCP since protocol v2 of the wire spec, the worker pipes since
// ProtocolVersion 2 — so a flipped bit anywhere between the two processes
// is detected at the frame boundary instead of mis-parsed downstream.
//
//	length u32 | type u8 | payload | crc32 u32   (length counts type+payload+crc)
func WriteFrameCRC(w io.Writer, typ uint8, payload []byte) error {
	buf, err := appendFrameCRC(nil, typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// appendFrameCRC appends one CRC-protected frame to buf, so several frames
// can leave in a single write.
func appendFrameCRC(buf []byte, typ uint8, payload []byte) ([]byte, error) {
	if len(payload)+5 > MaxFrame {
		return buf, fmt.Errorf("worker: frame type %d overflows MaxFrame (%d bytes)", typ, len(payload))
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(payload)+4))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:])), nil
}

// ReadFrameCRC reads one CRC-protected frame and verifies its trailing
// checksum, returning ErrFrameCRC (wrapped) on mismatch. Length-prefix
// handling is ReadFrame's: chunked allocation, MaxFrame bound, torn-tail
// detection.
func ReadFrameCRC(r io.Reader) (typ uint8, payload []byte, err error) {
	typ, body, err := ReadFrame(r)
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("worker: CRC frame type %d has %d-byte body, need at least the checksum", typ, len(body))
	}
	payload = body[:len(body)-4]
	want := binary.LittleEndian.Uint32(body[len(body)-4:])
	crc := crc32.New(crc32.IEEETable)
	crc.Write([]byte{typ})
	crc.Write(payload)
	if crc.Sum32() != want {
		return 0, nil, fmt.Errorf("%w (frame type %d, %d bytes)", ErrFrameCRC, typ, len(payload))
	}
	return typ, payload, nil
}

func encodeHello(h hello) []byte {
	kind := []byte(h.Spec.Kind)
	buf := make([]byte, 0, 24+len(kind)+len(h.Spec.Payload))
	buf = binary.LittleEndian.AppendUint16(buf, h.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.HeartbeatInterval/time.Millisecond))
	buf = binary.LittleEndian.AppendUint64(buf, h.MemQuota)
	buf = binary.LittleEndian.AppendUint64(buf, h.Spec.Fingerprint)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.Spec.Payload)))
	buf = append(buf, h.Spec.Payload...)
	return buf
}

func decodeHello(b []byte) (hello, error) {
	var h hello
	if len(b) < 24 {
		return h, fmt.Errorf("worker: hello frame too short (%d bytes)", len(b))
	}
	h.Version = binary.LittleEndian.Uint16(b[0:2])
	h.HeartbeatInterval = time.Duration(binary.LittleEndian.Uint32(b[2:6])) * time.Millisecond
	h.MemQuota = binary.LittleEndian.Uint64(b[6:14])
	h.Spec.Fingerprint = binary.LittleEndian.Uint64(b[14:22])
	kn := int(binary.LittleEndian.Uint16(b[22:24]))
	b = b[24:]
	if len(b) < kn+4 {
		return h, fmt.Errorf("worker: hello frame truncated in kind")
	}
	h.Spec.Kind = string(b[:kn])
	b = b[kn:]
	pn := int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	if len(b) != pn {
		return h, fmt.Errorf("worker: hello spec length %d, frame holds %d", pn, len(b))
	}
	h.Spec.Payload = b
	return h, nil
}

func encodeReady(r ready) []byte {
	buf := make([]byte, 0, 14)
	buf = binary.LittleEndian.AppendUint16(buf, r.Version)
	buf = binary.LittleEndian.AppendUint64(buf, r.Fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, r.Units)
	return buf
}

func decodeReady(b []byte) (ready, error) {
	if len(b) != 14 {
		return ready{}, fmt.Errorf("worker: ready frame is %d bytes, want 14", len(b))
	}
	return ready{
		Version:     binary.LittleEndian.Uint16(b[0:2]),
		Fingerprint: binary.LittleEndian.Uint64(b[2:10]),
		Units:       binary.LittleEndian.Uint32(b[10:14]),
	}, nil
}

func encodeVerdict(v verdict) []byte {
	buf := make([]byte, 0, 11+len(v.Payload))
	buf = binary.LittleEndian.AppendUint32(buf, v.Unit)
	buf = append(buf, v.Outcome.Mode, v.Outcome.Flags(), boolByte(v.Last))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Payload)))
	buf = append(buf, v.Payload...)
	return buf
}

func decodeVerdict(b []byte) (verdict, error) {
	var v verdict
	if len(b) < 11 {
		return v, fmt.Errorf("worker: verdict frame too short (%d bytes)", len(b))
	}
	v.Unit = binary.LittleEndian.Uint32(b[0:4])
	v.Outcome = journal.DecodeOutcome(b[4], b[5])
	v.Last = b[6] != 0
	pn := int(binary.LittleEndian.Uint32(b[7:11]))
	if len(b)-11 != pn {
		return v, fmt.Errorf("worker: verdict payload length %d, frame holds %d", pn, len(b)-11)
	}
	if pn > 0 {
		v.Payload = b[11:]
	}
	return v, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
