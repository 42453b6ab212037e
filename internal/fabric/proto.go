// Package fabric is the distributed campaign layer: it lifts the worker
// protocol's framing (internal/worker) off stdin/stdout onto TCP so one
// coordinator process can shard a campaign's plan-index space across
// executor processes on other hosts, work-steal from stragglers, and merge
// the verdict stream deterministically.
//
// The division of labour mirrors the single-host stack one level up. The
// coordinator plans the campaign serially (exactly as a local run would),
// listens for executors, and owns the scheduling policy: initial contiguous
// range shards weighted by each host's worker count, half-range steals when
// a host goes idle, redelivery of a dead host's unfinished units, and
// at-most-N host deaths before a unit is quarantined. Executors rebuild the
// identical plan from the spec in the hello frame — the plan itself is
// never shipped, only the Config that determines it, cross-checked by the
// plan fingerprint — and run their assigned ranges on the whole local
// stack: machine pools, golden checkpointing, the block engine, and
// optionally the process-isolation sandbox.
//
// Because verdicts are deterministic (the repository-wide bit-identical
// contract), duplicate execution is harmless: a unit that was stolen while
// in flight, or redelivered after a host died mid-range, produces the same
// verdict twice and the second copy is dropped at the merge. That is what
// keeps the scheduling policy simple — nothing needs distributed consensus,
// only the coordinator's single-threaded event loop.
//
// The wire protocol is internal/worker's (version 5): the same CRC frames
// (length u32 | type u8 | payload | crc32 u32), the same hello, ready,
// verdict, heartbeat, shutdown and error messages, one numbering and one
// ProtocolVersion, so a poisoned frame severs the connection for
// re-establishment rather than desynchronizing the stream. On TCP a
// verdict's seq is the per-session sequence number and its last flag is
// unused; ready's workers, token and name identify the executor's session,
// and its claimed units are the ones the executor holds unacknowledged.
// The fabric adds six messages of its own, numbered on from
// worker.MsgFabric (all integers little-endian):
//
//	assign    runs u32 | (start u32 | count u32)*
//	revoke    runs u32 | (start u32 | count u32)*
//	welcome   token u64 | resumed u8 | acked u32 | name-len u16 | name
//	ack       seq u32
//	telemetry sent-us i64 | count u32 |
//	          (name-len u16 | name | value u64)*
//	trace     sent-us i64 | count u32 |
//	          (t-us i64 | dur-us i64 | unit u32 | case u32 | worker u32 |
//	           kind-len u16 | kind | program-len u16 | program |
//	           fault-len u16 | fault | mode-len u16 | mode |
//	           detail-len u16 | detail)*
//
// Heartbeats flow in both directions; shutdown tells an executor the
// campaign is complete, and the executor answers it with a shutdown of its
// own, the receipt that releases its session; an error frame from either
// side aborts the campaign.
//
// The coordinator opens with hello; the executor answers ready after
// re-planning, echoing the negotiated version and the plan fingerprint it
// reconstructed, plus its session token — zero on a first join, the token
// from the welcome frame when re-attaching after a connection loss — and
// its claim: the units it holds and has not had acknowledged (queued, in
// its running batch, or answered with the verdict awaiting an ack). The
// coordinator answers ready with welcome: the session token to present next
// time, whether the session resumed (an existing session's assignments
// survive the reconnect), the highest verdict sequence number it has
// processed, which lets the executor prune its retransmit buffer, and the
// session's name — the executor's own unless another roster row holds it
// already (see newSession), so the executor's logs match the coordinator's. A
// coordinator that does not know the token — it was restarted, or it
// expired the session — adopts the session under that token with the
// claimed units, so the one crash-safe log a campaign keeps is its verdict
// journal: the done-set comes from the journal, the ownership from the
// executors.
//
// Assign, revoke and the claim carry run-length-encoded sorted unit sets:
// a fresh campaign's shard is one run, a resumed campaign's holes make
// more. An assign never re-queues a unit the executor already holds.
// Verdict mode/flags use the journal.Outcome wire encoding, the same bytes
// the journal appends, so a verdict crosses host, supervisor and journal
// without translation. Each verdict's sequence number is acknowledged by
// the coordinator only after the verdict is durably journaled;
// unacknowledged verdicts are buffered by the executor and retransmitted on
// re-attach, where the sequence number (and, behind it, the done-set) makes
// duplicate delivery idempotent.
//
// Telemetry and trace frames are the federation plane (DESIGN.md §5k):
// executors push them to the coordinator on the heartbeat cadence, strictly
// best-effort — unacknowledged, never retransmitted, dropped whenever
// sending would contend with the verdict path. Telemetry frames carry
// absolute (cumulative) counter values, so a dropped frame is healed by the
// next one; trace frames carry batched executor-local events, host
// attribution is stamped by the coordinator from the authenticated session
// (never trusted from the wire), and sent-us — the executor's wall clock at
// send time — is the per-frame clock-offset sample used to map executor
// timestamps onto the coordinator's clock in the merged trace.
package fabric

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/worker"
)

// Message types of the fabric's own messages, continuing the worker
// protocol's numbering.
const (
	msgAssign = worker.MsgFabric + iota
	msgRevoke
	msgWelcome
	msgAck
	msgTelemetry
	msgTrace
)

// welcome is the coordinator's answer to ready: the session identity the
// executor keeps across reconnects, whether an existing session's
// assignments survived, the retransmit-buffer watermark, and the name the
// coordinator knows the session by.
type welcome struct {
	Token   uint64
	Resumed bool
	Acked   uint32
	Name    string
}

func encodeWelcome(w welcome) []byte {
	buf := make([]byte, 0, 15+len(w.Name))
	buf = binary.LittleEndian.AppendUint64(buf, w.Token)
	if w.Resumed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, w.Acked)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.Name)))
	return append(buf, w.Name...)
}

func decodeWelcome(b []byte) (welcome, error) {
	var w welcome
	if len(b) < 15 {
		return w, fmt.Errorf("fabric: welcome frame is %d bytes, want at least 15", len(b))
	}
	w.Token = binary.LittleEndian.Uint64(b[0:8])
	w.Resumed = b[8] != 0
	w.Acked = binary.LittleEndian.Uint32(b[9:13])
	nn := int(binary.LittleEndian.Uint16(b[13:15]))
	if len(b) != 15+nn {
		return w, fmt.Errorf("fabric: welcome name length %d, frame holds %d", nn, len(b)-15)
	}
	w.Name = string(b[15:])
	return w, nil
}

func encodeAck(seq uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, seq)
}

func decodeAck(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("fabric: ack frame is %d bytes, want 4", len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

// encodeRuns compresses a sorted unit-index set into run-length form: the
// assign/revoke payload. Callers must pass sorted, duplicate-free indices.
func encodeRuns(units []int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0)
	runs := uint32(0)
	for i := 0; i < len(units); {
		start := units[i]
		j := i + 1
		for j < len(units) && units[j] == units[j-1]+1 {
			j++
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j-i))
		runs++
		i = j
	}
	binary.LittleEndian.PutUint32(buf[0:4], runs)
	return buf
}

// decodeRuns expands a run-length payload back into sorted unit indices.
// Runs must ascend without overlap and end inside the plan's maxUnits, so a
// hostile frame can neither name a unit outside the plan, repeat one, nor
// make the receiver allocate beyond the plan's own size.
func decodeRuns(b []byte, maxUnits int) ([]int, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("fabric: run-set frame too short (%d bytes)", len(b))
	}
	runs := int(binary.LittleEndian.Uint32(b[0:4]))
	b = b[4:]
	if len(b) != runs*8 {
		return nil, fmt.Errorf("fabric: run-set claims %d runs, frame holds %d bytes", runs, len(b))
	}
	var units []int
	for i := 0; i < runs; i++ {
		start := int(binary.LittleEndian.Uint32(b[i*8 : i*8+4]))
		count := int(binary.LittleEndian.Uint32(b[i*8+4 : i*8+8]))
		if count == 0 {
			return nil, fmt.Errorf("fabric: empty run in run-set")
		}
		if len(units) > 0 && start <= units[len(units)-1] {
			return nil, fmt.Errorf("fabric: run-set is not sorted")
		}
		if start+count > maxUnits {
			return nil, fmt.Errorf("fabric: run-set reaches past the plan's %d units", maxUnits)
		}
		for u := start; u < start+count; u++ {
			units = append(units, u)
		}
	}
	return units, nil
}

// Federation frame bounds: how many entries a single telemetry frame and
// how many events a single trace frame may claim. Well past anything the
// executor sends (it caps its own batches at these sizes), tight enough
// that a hostile frame cannot make the coordinator allocate unboundedly.
const (
	maxSnapEntries = 4096
	maxTraceEvents = 4096
)

// snapEntry is one metric in a telemetry snapshot frame: a registry name
// (possibly label-suffixed) and its absolute cumulative value.
type snapEntry struct {
	Name  string
	Value uint64
}

// appendString appends a u16-length-prefixed string (federation frames'
// string form). Strings past the u16 range are truncated — observation
// data, never correctness data.
func appendString(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// takeString consumes a u16-length-prefixed string from b.
func takeString(b []byte, what string) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("fabric: %s frame truncated in string length", what)
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("fabric: %s frame truncated in string body", what)
	}
	return string(b[:n]), b[n:], nil
}

// encodeSnapshot builds a telemetry frame: the sender's wall clock in unix
// microseconds (the clock-offset sample) plus absolute counter values.
func encodeSnapshot(sentUS int64, entries []snapEntry) []byte {
	if len(entries) > maxSnapEntries {
		entries = entries[:maxSnapEntries]
	}
	buf := make([]byte, 0, 12+len(entries)*40)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sentUS))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.Name)
		buf = binary.LittleEndian.AppendUint64(buf, e.Value)
	}
	return buf
}

// decodeSnapshot parses a telemetry frame. maxEntries bounds what the frame
// may claim.
func decodeSnapshot(b []byte, maxEntries int) (int64, []snapEntry, error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("fabric: telemetry frame too short (%d bytes)", len(b))
	}
	sentUS := int64(binary.LittleEndian.Uint64(b[0:8]))
	count := int(binary.LittleEndian.Uint32(b[8:12]))
	b = b[12:]
	if count > maxEntries {
		return 0, nil, fmt.Errorf("fabric: telemetry frame claims %d entries, max %d", count, maxEntries)
	}
	entries := make([]snapEntry, 0, count)
	for i := 0; i < count; i++ {
		var e snapEntry
		var err error
		e.Name, b, err = takeString(b, "telemetry")
		if err != nil {
			return 0, nil, err
		}
		if len(b) < 8 {
			return 0, nil, fmt.Errorf("fabric: telemetry frame truncated in value")
		}
		e.Value = binary.LittleEndian.Uint64(b[0:8])
		b = b[8:]
		entries = append(entries, e)
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("fabric: telemetry frame has %d trailing bytes", len(b))
	}
	return sentUS, entries, nil
}

// encodeTraceEvents builds a trace frame: the sender's wall clock plus a
// batch of executor-local events. Host is deliberately not on the wire —
// the coordinator stamps it from the authenticated session name.
func encodeTraceEvents(sentUS int64, evs []telemetry.Event) []byte {
	if len(evs) > maxTraceEvents {
		evs = evs[:maxTraceEvents]
	}
	buf := make([]byte, 0, 12+len(evs)*64)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sentUS))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(evs)))
	for _, e := range evs {
		var tus int64
		if !e.T.IsZero() {
			tus = e.T.UnixMicro()
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tus))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.DurUS))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Unit))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Case))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Worker))
		buf = appendString(buf, e.Kind)
		buf = appendString(buf, e.Program)
		buf = appendString(buf, e.Fault)
		buf = appendString(buf, e.Mode)
		buf = appendString(buf, e.Detail)
	}
	return buf
}

// decodeTraceEvents parses a trace frame. maxEvents bounds what the frame
// may claim.
func decodeTraceEvents(b []byte, maxEvents int) (int64, []telemetry.Event, error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("fabric: trace frame too short (%d bytes)", len(b))
	}
	sentUS := int64(binary.LittleEndian.Uint64(b[0:8]))
	count := int(binary.LittleEndian.Uint32(b[8:12]))
	b = b[12:]
	if count > maxEvents {
		return 0, nil, fmt.Errorf("fabric: trace frame claims %d events, max %d", count, maxEvents)
	}
	evs := make([]telemetry.Event, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 28 {
			return 0, nil, fmt.Errorf("fabric: trace frame truncated in event header")
		}
		var e telemetry.Event
		if tus := int64(binary.LittleEndian.Uint64(b[0:8])); tus != 0 {
			e.T = time.UnixMicro(tus).UTC()
		}
		e.DurUS = int64(binary.LittleEndian.Uint64(b[8:16]))
		e.Unit = int(binary.LittleEndian.Uint32(b[16:20]))
		e.Case = int(binary.LittleEndian.Uint32(b[20:24]))
		e.Worker = int(binary.LittleEndian.Uint32(b[24:28]))
		b = b[28:]
		var err error
		for _, dst := range []*string{&e.Kind, &e.Program, &e.Fault, &e.Mode, &e.Detail} {
			*dst, b, err = takeString(b, "trace")
			if err != nil {
				return 0, nil, err
			}
		}
		evs = append(evs, e)
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("fabric: trace frame has %d trailing bytes", len(b))
	}
	return sentUS, evs, nil
}
