package fabric

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// The fabric speaks the worker protocol's hello, ready and verdict codec;
// these round trips pin the fields only the fabric sets: the heartbeat
// timeout, a host's token, name, worker count and claimed units, and
// verdict sequence numbers.

func TestHelloRoundTrip(t *testing.T) {
	in := worker.Hello{
		Version:           worker.ProtocolVersion,
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		Spec: worker.Spec{
			Kind:        "campaign/v1",
			Fingerprint: 0xdeadbeefcafef00d,
			Payload:     []byte(`{"seed":42}`),
		},
	}
	out, err := worker.DecodeHello(worker.EncodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.HeartbeatInterval != in.HeartbeatInterval ||
		out.HeartbeatTimeout != in.HeartbeatTimeout || out.Spec.Kind != in.Spec.Kind ||
		out.Spec.Fingerprint != in.Spec.Fingerprint || !bytes.Equal(out.Spec.Payload, in.Spec.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestHelloTruncated(t *testing.T) {
	full := worker.EncodeHello(worker.Hello{Version: worker.ProtocolVersion, HeartbeatTimeout: time.Second, Spec: worker.Spec{Kind: "k", Payload: []byte("pp")}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := worker.DecodeHello(full[:cut]); err == nil {
			t.Fatalf("DecodeHello accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
		}
	}
}

func TestReadyRoundTrip(t *testing.T) {
	claim := []int{3, 4, 5, 17, 990}
	in := worker.Ready{Version: worker.ProtocolVersion, Fingerprint: 0x0123456789abcdef, Units: 991, Workers: 8, Token: 0xfeedface, Name: "host-b",
		Claimed: encodeRuns(claim)}
	out, err := worker.DecodeReady(worker.EncodeReady(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	if got, err := decodeRuns(out.Claimed, int(out.Units)); err != nil || !reflect.DeepEqual(got, claim) {
		t.Fatalf("claimed units decode to %v (%v), want %v", got, err, claim)
	}
	if _, err := decodeRuns(out.Claimed, 990); err == nil {
		t.Fatal("a claim on unit 990 decoded under a 990-unit plan")
	}
	if _, err := worker.DecodeReady(worker.EncodeReady(in)[:19]); err == nil {
		t.Fatal("DecodeReady accepted a short frame")
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	for _, in := range []welcome{
		{Token: 1},
		{Token: 0xdead0001, Resumed: true, Acked: 977},
	} {
		out, err := decodeWelcome(encodeWelcome(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %+v != %+v", out, in)
		}
	}
	if _, err := decodeWelcome(encodeWelcome(welcome{Token: 9})[:12]); err == nil {
		t.Fatal("decodeWelcome accepted a short frame")
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, in := range []uint32{0, 1, 1 << 30} {
		out, err := decodeAck(encodeAck(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %d != %d", out, in)
		}
	}
	if _, err := decodeAck([]byte{1, 2, 3}); err == nil {
		t.Fatal("decodeAck accepted a short frame")
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	cases := []worker.Verdict{
		{Unit: 0, Outcome: journal.Outcome{Mode: 1}},
		{Seq: 41, Unit: 7, Outcome: journal.Outcome{Mode: 5, Activated: true, Retried: true}},
		{Seq: 1 << 20, Unit: 123456, Outcome: journal.Outcome{Mode: 3, Degraded: true}, Payload: []byte("case output")},
	}
	for _, in := range cases {
		out, err := worker.DecodeVerdict(worker.EncodeVerdict(in))
		if err != nil {
			t.Fatal(err)
		}
		if out.Seq != in.Seq || out.Unit != in.Unit || out.Outcome != in.Outcome || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", out, in)
		}
	}
	if _, err := worker.DecodeVerdict(worker.EncodeVerdict(cases[2])[:12]); err == nil {
		t.Fatal("DecodeVerdict accepted a truncated payload")
	}
}

func TestRunsRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{0, 1, 2, 3},
		{5, 6, 7, 100, 101, 9000},
		{2, 4, 6, 8},
	}
	for _, in := range cases {
		out, err := decodeRuns(encodeRuns(in), 10000)
		if err != nil {
			t.Fatalf("units %v: %v", in, err)
		}
		if len(in) == 0 {
			if len(out) != 0 {
				t.Fatalf("empty set decoded to %v", out)
			}
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip mismatch: %v != %v", out, in)
		}
	}
}

func TestRunsExpansionBound(t *testing.T) {
	// rawRuns lays out a run-set by hand from (start, count) pairs.
	rawRuns := func(pairs ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(pairs)/2))
		for _, v := range pairs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	// One run of 1000 units must not decode under a 10-unit plan, nor may
	// a run name a unit past the plan, overlap an earlier run or descend.
	for _, b := range [][]byte{
		encodeRuns(seqUnits(0, 1000)),
		rawRuns(10, 1),
		rawRuns(2, 2, 3, 1),
		rawRuns(5, 1, 2, 1),
	} {
		if units, err := decodeRuns(b, 10); err == nil {
			t.Fatalf("decodeRuns accepted %v under a 10-unit plan", units)
		}
	}
}

func seqUnits(start, n int) []int {
	units := make([]int, n)
	for i := range units {
		units[i] = start + i
	}
	return units
}

// FuzzDecoders feeds arbitrary payloads to every frame decoder the fabric
// speaks: the shared hello/ready/verdict decoders of the worker protocol
// (the pipes run them too), the fabric's own messages, and the run-set a
// ready frame claims. None may panic, and an accepted run-set must never
// expand past the maxUnits bound no matter what the frame claims.
func FuzzDecoders(f *testing.F) {
	f.Add(worker.EncodeHello(worker.Hello{Version: worker.ProtocolVersion, Spec: worker.Spec{Kind: "k", Payload: []byte("p")}}))
	f.Add(worker.EncodeReady(worker.Ready{Version: worker.ProtocolVersion, Token: 7, Name: "n"}))
	f.Add(worker.EncodeVerdict(worker.Verdict{Seq: 5, Unit: 3, Last: true, Payload: []byte("out")}))
	f.Add(encodeWelcome(welcome{Token: 12, Resumed: true, Acked: 44}))
	f.Add(encodeAck(99))
	f.Add(worker.EncodeReady(worker.Ready{Version: worker.ProtocolVersion, Units: 128, Name: "n", Claimed: encodeRuns(nil)}))
	f.Add(worker.EncodeReady(worker.Ready{Version: worker.ProtocolVersion, Units: 128, Token: 7, Name: "n", Claimed: encodeRuns([]int{0, 1, 2, 9, 10})}))
	f.Add(encodeRuns([]int{0, 1, 2, 9, 10}))
	f.Add(encodeSnapshot(1722000000000000, []snapEntry{
		{Name: "fabric_units_executed_total", Value: 31},
		{Name: "chaos_conn_drops_total", Value: 2},
	}))
	f.Add(encodeTraceEvents(1722000000000000, []telemetry.Event{
		{T: time.UnixMicro(1722000000000001), Kind: "executed", Unit: 5, Case: 2, Worker: 1, DurUS: 99, Program: "tritype", Fault: "MFC-1", Mode: "crash"},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		worker.DecodeHello(data)
		worker.DecodeVerdict(data)
		decodeWelcome(data)
		decodeAck(data)
		const maxUnits = 128
		checkRuns := func(b []byte) {
			units, err := decodeRuns(b, maxUnits)
			if err != nil {
				return
			}
			for i, u := range units {
				if u < 0 || u >= maxUnits || i > 0 && u <= units[i-1] {
					t.Fatalf("decodeRuns returned %v: not ascending inside the %d-unit plan", units, maxUnits)
				}
			}
		}
		checkRuns(data)
		if rd, err := worker.DecodeReady(data); err == nil {
			checkRuns(rd.Claimed)
		}
		const maxFed = 16
		if _, entries, err := decodeSnapshot(data, maxFed); err == nil && len(entries) > maxFed {
			t.Fatalf("decodeSnapshot returned %d entries past the %d bound", len(entries), maxFed)
		}
		if _, evs, err := decodeTraceEvents(data, maxFed); err == nil && len(evs) > maxFed {
			t.Fatalf("decodeTraceEvents returned %d events past the %d bound", len(evs), maxFed)
		}
	})
}
