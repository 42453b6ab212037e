package worker

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Runner executes units inside a worker process. Units() must equal the
// supervisor's count (it is cross-checked in the handshake); Run returns the
// unit's outcome in journal wire form plus an optional kind-specific payload
// carried back verbatim in the verdict.
type Runner interface {
	Units() int
	Run(unit int) (journal.Outcome, []byte, error)
}

// Factory builds a Runner from the spec received in the hello frame. The
// factory must derive the exact unit numbering the supervisor planned and
// return a Runner whose fingerprint check has already been performed (a
// mismatch should be an error here, not a wrong answer later).
type Factory func(spec Spec) (Runner, error)

// verdictBatch is how many verdicts Serve buffers before it writes them
// out in one go. Buffered verdicts also leave before the worker would
// block waiting for input and on every heartbeat tick.
const verdictBatch = 16

// Serve runs the worker side of the protocol until shutdown, EOF, or a
// fatal error. It is the entire main loop of a `-worker-mode` process: read
// the hello, build the Runner, answer exec requests in the order they
// arrive, and heartbeat continuously so the supervisor can tell "busy on a
// long unit" from "wedged".
//
// Verdicts are coalesced: they are buffered and written verdictBatch at a
// time, whenever the worker is about to block on an empty input buffer
// (the supervisor may be waiting for them before it sends more work), and
// on every heartbeat tick, so a finished verdict reaches the supervisor at
// most one HeartbeatInterval late and its silence and hard deadlines keep
// their meaning. The memory quota is sampled on the same tick, off the
// per-unit path; a tick that finds the RSS over the quota marks the next
// verdict last.
//
// The returned error is for the worker process's own exit status; anything
// the supervisor needs to know has already been sent as an error frame
// (best effort — if the pipe itself is broken the supervisor sees the death
// instead, which it handles the same way).
func Serve(r io.Reader, w io.Writer, f Factory) error {
	br := bufio.NewReader(r)
	ws := &syncWriter{w: w}

	typ, payload, err := ReadFrameCRC(br)
	if err != nil {
		return fmt.Errorf("worker: reading hello: %w", err)
	}
	if typ != MsgHello {
		return fatal(ws, fmt.Errorf("worker: expected hello, got frame type %d", typ))
	}
	h, err := DecodeHello(payload)
	if err != nil {
		return fatal(ws, err)
	}
	// The factory checks the fingerprint: it rebuilds the plan it hashes.
	if err := CheckPeer(h.Version, h.Spec.Fingerprint, 0); err != nil {
		return fatal(ws, fmt.Errorf("worker: supervisor %w", err))
	}

	// Heartbeats start before the Runner is built: spec planning can be the
	// slowest part of worker startup, and a silent worker is a dead worker
	// as far as the supervisor is concerned.
	var overQuota atomic.Bool
	if h.HeartbeatInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(h.HeartbeatInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if h.MemQuota > 0 && rssBytes() > h.MemQuota {
						overQuota.Store(true)
					}
					if ws.send(MsgHeartbeat, nil) != nil {
						return // broken pipe; the main loop will see it too
					}
				}
			}
		}()
	}

	runner, err := f(h.Spec)
	if err != nil {
		return fatal(ws, fmt.Errorf("worker: building runner for spec kind %q: %w", h.Spec.Kind, err))
	}
	if err := ws.send(MsgReady, EncodeReady(Ready{
		Version:     ProtocolVersion,
		Fingerprint: h.Spec.Fingerprint,
		Units:       uint32(runner.Units()),
	})); err != nil {
		return err
	}

	for {
		if !frameBuffered(br) {
			if err := ws.flush(); err != nil {
				return err
			}
		}
		typ, payload, err := ReadFrameCRC(br)
		if err != nil {
			if err == io.EOF {
				return nil // supervisor closed the pipe: clean shutdown
			}
			return fmt.Errorf("worker: reading request: %w", err)
		}
		switch typ {
		case MsgShutdown:
			return ws.flush()
		case MsgExec:
			if len(payload) != 4 {
				return fatal(ws, fmt.Errorf("worker: exec frame is %d bytes, want 4", len(payload)))
			}
			unit := int(uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24)
			if unit >= runner.Units() {
				return fatal(ws, fmt.Errorf("worker: exec unit %d out of range (plan has %d)", unit, runner.Units()))
			}
			o, res, err := runner.Run(unit)
			if err != nil {
				// A unit error is fatal to the whole campaign in-process, so
				// it is fatal here too; the supervisor aborts rather than
				// quarantining it as a host fault.
				return fatal(ws, fmt.Errorf("worker: unit %d: %w", unit, err))
			}
			last := overQuota.Load()
			queued, err := ws.queue(MsgVerdict, EncodeVerdict(Verdict{
				Unit:    uint32(unit),
				Outcome: o,
				Last:    last,
				Payload: res,
			}))
			if err != nil {
				return fatal(ws, err)
			}
			if last {
				// Self-recycle: once the verdict is on the wire, exiting
				// loses nothing and returns the bloated address space to
				// the OS. The supervisor respawns without penalty and
				// hands the rest of the window to another worker.
				return ws.flush()
			}
			if queued >= verdictBatch {
				if err := ws.flush(); err != nil {
					return err
				}
			}
		default:
			return fatal(ws, fmt.Errorf("worker: unexpected frame type %d", typ))
		}
	}
}

// frameBuffered reports whether br already holds a whole frame, so that
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // cannot fail: four bytes are buffered
	return uint64(n-4) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// fatal reports err to the supervisor as an error frame (best effort) and
// returns it for the worker's own exit path.
func fatal(ws *syncWriter, err error) error {
	_ = ws.send(MsgError, []byte(err.Error()))
	return err
}

// syncWriter serialises frame writes between the request loop and the
// heartbeat goroutine, and holds the frames queued since the last flush.
type syncWriter struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	queued int
}

// queue buffers a frame for the next flush and reports how many frames
// are buffered.
func (s *syncWriter) queue(typ uint8, payload []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.buf, err = appendFrameCRC(s.buf, typ, payload); err != nil {
		return s.queued, err
	}
	s.queued++
	return s.queued, nil
}

// send writes a frame now, behind any buffered ones.
func (s *syncWriter) send(typ uint8, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.buf, err = appendFrameCRC(s.buf, typ, payload); err != nil {
		return err
	}
	return s.flushLocked()
}

// flush writes out the buffered frames.
func (s *syncWriter) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *syncWriter) flushLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf, s.queued = s.buf[:0], 0
	return err
}

// rssBytes reports the process's resident set size. On Linux it reads
// /proc/self/statm (the second field, in pages); elsewhere it falls back to
// the Go heap, which undercounts but still catches heap-driven growth.
func rssBytes() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		fields := strings.Fields(string(b))
		if len(fields) >= 2 {
			if pages, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse
}
