// Package worker is the out-of-process execution sandbox of the campaign
// layer: units run in supervised worker subprocesses that speak a
// length-prefixed, versioned binary protocol over stdin/stdout, so a hard
// host failure — an OS OOM-kill, a runaway allocation, a stuck syscall —
// costs one worker process and a redelivery of the units it had in flight,
// never the campaign.
//
// The package has two halves. Serve is the worker side: a re-exec'd binary
// (swifi -worker-mode) reads a Spec, builds a Runner from it, and answers
// unit-execution requests until told to shut down, heartbeating the whole
// time. Pool is the supervisor side: it owns a fleet of worker processes
// and enforces the robustness policy — heartbeat and wall-clock deadlines,
// restart with exponential backoff, at-most-N redelivery before a unit is
// quarantined, and a circuit breaker that gives up on process isolation
// when worker churn shows the host cannot sustain it.
//
// The package also defines the wire protocol of internal/fabric, which
// carries the same frames over TCP. One message set, one numbering and one
// ProtocolVersion serve both transports; the fabric adds its own messages
// (assign, revoke, welcome, ack, telemetry, trace) from MsgFabric on.
//
// The wire protocol, version 4 (all integers little-endian):
//
//	frame    length u32 | type u8 | payload | crc32 u32
//	         (length counts type+payload+crc; crc32 is IEEE over type+payload)
//
//	hello    version u16 | heartbeat-ms u32 | deadline-ms u32 | mem-quota u64 |
//	         fingerprint u64 | kind-len u16 | kind | spec-len u32 | spec
//	ready    version u16 | fingerprint u64 | units u32 | workers u32 |
//	         token u64 | name-len u16 | name | claimed-len u32 | claimed
//	exec     unit u32                                          (pipes only)
//	verdict  seq u32 | unit u32 | mode u8 | flags u8 | last u8 |
//	         payload-len u32 | payload
//	heartbeat (empty)
//	shutdown  (empty)
//	error    message (UTF-8)
//
// The supervisor (or coordinator) opens with hello; the worker (or
// executor) answers ready after building its Runner, echoing the protocol
// version and the fingerprint of the plan it reconstructed. CheckPeer is
// the one check both sides make: a peer whose version or fingerprint
// differs is from a different build or configuration and must not be
// trusted with the unit numbering. Hello and ready lead with the version
// in every protocol version, so a decoder reads a foreign peer's version
// before a layout it cannot parse. Fields one transport has no use for
// travel as zeros and are ignored: workers ignore the deadline, executors
// the memory quota; the supervisor ignores ready's workers, token, name and
// claimed units and a verdict's seq; the coordinator ignores a verdict's
// last flag. A pipe worker's claim is empty.
// Verdict mode/flags use the journal.Outcome wire encoding, so a verdict
// appends to a campaign journal byte-for-byte. A pipe verdict with last set
// is the worker's final answer (it recycles itself — e.g. its RSS crossed
// the memory quota) and the supervisor respawns it without penalty.
//
// Delivery is pipelined: the supervisor keeps a window of exec frames in
// flight per worker and the worker answers them strictly in order,
// coalescing its verdict frames into few writes (Serve documents the
// flush rules, poolRun.orphan the crash attribution). The frames
// themselves are the same as for a lock-step exchange.
//
// Frames above MaxFrame, unknown types, short reads, and checksum
// mismatches are protocol errors: the supervisor kills the worker and
// redelivers, so a corrupted or torn frame restarts the worker through the
// ordinary redelivery machinery instead of desynchronizing the stream —
// stdin and stdout are byte streams like any other, and the chaos plane
// abuses them like any other.
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
	// in ready, so a mixed-build pair on either transport fails the
	// handshake instead of mis-parsing frames.
	ProtocolVersion = 4

	// MaxFrame bounds any frame's length prefix. A frame claiming more is
	// garbage (a worker writing junk to stdout, a supervisor reading from
	// the wrong process) and is rejected before any allocation.
	MaxFrame = 16 << 20

	// DefaultHeartbeatInterval and DefaultHeartbeatTimeout are the liveness
	// defaults of both transports: the cadence peers beat at, and how long
	// total silence is tolerated before the peer is declared dead.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	DefaultHeartbeatTimeout  = 10 * time.Second
)

// Message types, one numbering for both transports.
const (
	MsgHello uint8 = 1 + iota
	MsgReady
	MsgExec
	MsgVerdict
	MsgHeartbeat
	MsgShutdown
	MsgError
	// MsgFabric is the first type number of the fabric's own messages,
	// which internal/fabric defines.
	MsgFabric
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

// Hello is the opening frame: supervisor to worker, coordinator to
// executor.
type Hello struct {
	Version           uint16
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration // the silence deadline; workers ignore it
	MemQuota          uint64        // RSS self-recycle threshold; executors ignore it
	Spec              Spec
}

// Ready is the handshake answer. Workers, Token, Name and Claimed are the
// fabric's: an executor's parallelism, its session token (zero on a first
// join, the welcome-issued token when re-attaching), its host name, and the
// units it holds that the coordinator has not acknowledged, as an
// assign-style run-set (internal/fabric) that a restarted coordinator
// adopts.
type Ready struct {
	Version     uint16
	Fingerprint uint64
	Units       uint32
	Workers     uint32
	Token       uint64
	Name        string
	Claimed     []byte
}

// Verdict is one completed unit. Seq is the fabric's per-session sequence
// number (1-based, monotone across reconnects); Last is the pipe worker's
// self-recycle flag (it exits after this verdict).
type Verdict struct {
	Seq     uint32
	Unit    uint32
	Outcome journal.Outcome
	Last    bool
	Payload []byte
}

// CheckPeer is the handshake check of both transports: the version a
// peer's hello or ready announced must be this build's, and its plan
// fingerprint must be want. want is zero on a side that has no plan of
// its own yet (a worker, or an executor on its first hello, builds it from
// the spec), which skips the fingerprint comparison. The error reads after
// the name of the peer ("worker[0] speaks protocol version 2, ...").
func CheckPeer(version uint16, fingerprint, want uint64) error {
	if version != ProtocolVersion {
		return fmt.Errorf("speaks protocol version %d, this build speaks %d", version, ProtocolVersion)
	}
	if want != 0 && fingerprint != want {
		return fmt.Errorf("has plan fingerprint %016x, this side planned %016x — differing builds or configuration", fingerprint, want)
	}
	return nil
}

// readChunk bounds how much ReadFrameCRC allocates ahead of the bytes that
// have actually arrived.
const readChunk = 64 << 10

// ErrFrameCRC marks a frame whose trailing checksum did not match its
// bytes: the frame was poisoned in transit (a corrupting link, a hostile
// peer, a torn TCP segment boundary). Receivers that can re-establish their
// connection — the fabric — treat it as a connection failure, not a
// protocol error: the sender is healthy, the link is not.
var ErrFrameCRC = errors.New("worker: frame checksum mismatch")

// WriteFrameCRC emits one frame. Callers serialise writes themselves.
func WriteFrameCRC(w io.Writer, typ uint8, payload []byte) error {
	buf, err := appendFrameCRC(nil, typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// appendFrameCRC appends one frame to buf, so several frames can leave in
// a single write.
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

// ReadFrameCRC reads one frame and verifies its trailing checksum,
// returning ErrFrameCRC (wrapped) on mismatch. Empty and oversized length
// prefixes are rejected, and the body buffer grows in chunks as bytes
// arrive instead of trusting the length prefix up front, so a corrupt
// prefix on a dying peer costs at most one chunk, never MaxFrame.
func ReadFrameCRC(r io.Reader) (typ uint8, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("worker: bad frame length %d", n)
	}
	buf := make([]byte, min(n, readChunk))
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
			break
		}
		buf = append(buf, make([]byte, min(n-read, readChunk))...)
	}
	if n < 5 {
		return 0, nil, fmt.Errorf("worker: frame type %d has %d-byte body, need at least the checksum", buf[0], n-1)
	}
	typ, payload = buf[0], buf[1:n-4]
	if crc32.ChecksumIEEE(buf[:n-4]) != binary.LittleEndian.Uint32(buf[n-4:]) {
		return 0, nil, fmt.Errorf("%w (frame type %d, %d bytes)", ErrFrameCRC, typ, len(payload))
	}
	return typ, payload, nil
}

// EncodeHello lays out a hello frame's payload.
func EncodeHello(h Hello) []byte {
	kind := []byte(h.Spec.Kind)
	buf := make([]byte, 0, 28+len(kind)+len(h.Spec.Payload))
	buf = binary.LittleEndian.AppendUint16(buf, h.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.HeartbeatInterval/time.Millisecond))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.HeartbeatTimeout/time.Millisecond))
	buf = binary.LittleEndian.AppendUint64(buf, h.MemQuota)
	buf = binary.LittleEndian.AppendUint64(buf, h.Spec.Fingerprint)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.Spec.Payload)))
	buf = append(buf, h.Spec.Payload...)
	return buf
}

// DecodeHello parses a hello frame's payload. A hello of another protocol
// version decodes to its version alone (see peerVersion).
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	if v, ok := peerVersion(b); !ok {
		return Hello{Version: v}, nil
	}
	if len(b) < 28 {
		return h, fmt.Errorf("worker: hello frame too short (%d bytes)", len(b))
	}
	h.Version = ProtocolVersion
	h.HeartbeatInterval = time.Duration(binary.LittleEndian.Uint32(b[2:6])) * time.Millisecond
	h.HeartbeatTimeout = time.Duration(binary.LittleEndian.Uint32(b[6:10])) * time.Millisecond
	h.MemQuota = binary.LittleEndian.Uint64(b[10:18])
	h.Spec.Fingerprint = binary.LittleEndian.Uint64(b[18:26])
	kn := int(binary.LittleEndian.Uint16(b[26:28]))
	b = b[28:]
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

// EncodeReady lays out a ready frame's payload.
func EncodeReady(r Ready) []byte {
	name := []byte(r.Name)
	buf := make([]byte, 0, 32+len(name)+len(r.Claimed))
	buf = binary.LittleEndian.AppendUint16(buf, r.Version)
	buf = binary.LittleEndian.AppendUint64(buf, r.Fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, r.Units)
	buf = binary.LittleEndian.AppendUint32(buf, r.Workers)
	buf = binary.LittleEndian.AppendUint64(buf, r.Token)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Claimed)))
	return append(buf, r.Claimed...)
}

// DecodeReady parses a ready frame's payload. A ready of another protocol
// version decodes to its version alone (see peerVersion).
func DecodeReady(b []byte) (Ready, error) {
	var r Ready
	if v, ok := peerVersion(b); !ok {
		return Ready{Version: v}, nil
	}
	if len(b) < 28 {
		return r, fmt.Errorf("worker: ready frame too short (%d bytes)", len(b))
	}
	r.Version = ProtocolVersion
	r.Fingerprint = binary.LittleEndian.Uint64(b[2:10])
	r.Units = binary.LittleEndian.Uint32(b[10:14])
	r.Workers = binary.LittleEndian.Uint32(b[14:18])
	r.Token = binary.LittleEndian.Uint64(b[18:26])
	nn := int(binary.LittleEndian.Uint16(b[26:28]))
	b = b[28:]
	if len(b) < nn+4 {
		return r, fmt.Errorf("worker: ready frame truncated in name")
	}
	r.Name = string(b[:nn])
	cn := int(binary.LittleEndian.Uint32(b[nn : nn+4]))
	b = b[nn+4:]
	if len(b) != cn {
		return r, fmt.Errorf("worker: ready claim length %d, frame holds %d", cn, len(b))
	}
	if cn > 0 {
		r.Claimed = b
	}
	return r, nil
}

// peerVersion reads the version that leads every hello and ready payload
// and reports whether it is this build's. The rest of a foreign version's
// layout is not this build's to parse, so its decoders stop at the version
// and leave the diagnosis to CheckPeer: "speaks protocol version 5", not a
// length error.
func peerVersion(b []byte) (uint16, bool) {
	if len(b) < 2 {
		return 0, true // too short for any version; the caller reports it
	}
	v := binary.LittleEndian.Uint16(b)
	return v, v == ProtocolVersion
}

// EncodeVerdict lays out a verdict frame's payload.
func EncodeVerdict(v Verdict) []byte {
	buf := make([]byte, 0, 15+len(v.Payload))
	buf = binary.LittleEndian.AppendUint32(buf, v.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, v.Unit)
	buf = append(buf, v.Outcome.Mode, v.Outcome.Flags(), boolByte(v.Last))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Payload)))
	buf = append(buf, v.Payload...)
	return buf
}

// DecodeVerdict parses a verdict frame's payload. The payload aliases b.
func DecodeVerdict(b []byte) (Verdict, error) {
	var v Verdict
	if len(b) < 15 {
		return v, fmt.Errorf("worker: verdict frame too short (%d bytes)", len(b))
	}
	v.Seq = binary.LittleEndian.Uint32(b[0:4])
	v.Unit = binary.LittleEndian.Uint32(b[4:8])
	v.Outcome = journal.DecodeOutcome(b[8], b[9])
	v.Last = b[10] != 0
	pn := int(binary.LittleEndian.Uint32(b[11:15]))
	if len(b)-15 != pn {
		return v, fmt.Errorf("worker: verdict payload length %d, frame holds %d", pn, len(b)-15)
	}
	if pn > 0 {
		v.Payload = b[15:]
	}
	return v, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
