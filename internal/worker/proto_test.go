package worker

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{
		Version:           ProtocolVersion,
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		MemQuota:          2 << 30,
		Spec: Spec{
			Kind:        "campaign/v1",
			Fingerprint: 0xdeadbeefcafef00d,
			Payload:     []byte(`{"seed":42}`),
		},
	}
	out, err := DecodeHello(EncodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.HeartbeatInterval != in.HeartbeatInterval ||
		out.HeartbeatTimeout != in.HeartbeatTimeout || out.MemQuota != in.MemQuota ||
		out.Spec.Kind != in.Spec.Kind || out.Spec.Fingerprint != in.Spec.Fingerprint ||
		!bytes.Equal(out.Spec.Payload, in.Spec.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestHelloTruncated(t *testing.T) {
	full := EncodeHello(Hello{Version: ProtocolVersion, Spec: Spec{Kind: "k", Payload: []byte("pp")}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeHello(full[:cut]); err == nil {
			t.Fatalf("DecodeHello accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
		}
	}
}

func TestReadyRoundTrip(t *testing.T) {
	for _, in := range []Ready{
		{Version: ProtocolVersion, Fingerprint: 0x0123456789abcdef, Units: 991},
		{Version: ProtocolVersion, Fingerprint: 0x0123456789abcdef, Units: 991, Workers: 8, Token: 0xfeedface, Name: "host-b"},
		{Version: ProtocolVersion, Fingerprint: 0x0123456789abcdef, Units: 991, Workers: 8, Token: 0xfeedface, Name: "host-b",
			Claimed: []byte{1, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0}},
	} {
		out, err := DecodeReady(EncodeReady(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip mismatch: %+v != %+v", out, in)
		}
		full := EncodeReady(in)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeReady(full[:cut]); err == nil {
				t.Fatalf("DecodeReady accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
			}
		}
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	cases := []Verdict{
		{Unit: 0, Outcome: journal.Outcome{Mode: 1}},
		{Unit: 7, Outcome: journal.Outcome{Mode: 5, Activated: true, Retried: true}, Last: true},
		{Seq: 41, Unit: 7, Outcome: journal.Outcome{Mode: 5, Activated: true, Retried: true}},
		{Seq: 1 << 20, Unit: 123456, Outcome: journal.Outcome{Mode: 3, Degraded: true}, Payload: []byte("case output")},
	}
	for _, in := range cases {
		out, err := DecodeVerdict(EncodeVerdict(in))
		if err != nil {
			t.Fatal(err)
		}
		if out.Seq != in.Seq || out.Unit != in.Unit || out.Outcome != in.Outcome || out.Last != in.Last ||
			!bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", out, in)
		}
	}
	full := EncodeVerdict(cases[3])
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeVerdict(full[:cut]); err == nil {
			t.Fatalf("DecodeVerdict accepted a %d-byte prefix of a %d-byte frame", cut, len(full))
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameCRC(&buf, MsgExec, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrameCRC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgExec || !bytes.Equal(payload, []byte{1, 2, 3, 4}) {
		t.Fatalf("got type %d payload %v", typ, payload)
	}
}

func TestFrameRejectsBadLengths(t *testing.T) {
	// Zero-length frame: not even a type byte.
	zero := make([]byte, 4)
	if _, _, err := ReadFrameCRC(bytes.NewReader(zero)); err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("zero-length frame: %v", err)
	}
	// Oversized claim: reject before allocating.
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, MaxFrame+1)
	if _, _, err := ReadFrameCRC(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("oversized frame: %v", err)
	}
	// Header claiming more body than exists: torn, not clean EOF.
	torn := make([]byte, 4, 6)
	binary.LittleEndian.PutUint32(torn, 10)
	torn = append(torn, MsgExec, 0)
	if _, _, err := ReadFrameCRC(bytes.NewReader(torn)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v", err)
	}
	// Oversized write is refused at the source too.
	if err := WriteFrameCRC(io.Discard, MsgVerdict, make([]byte, MaxFrame)); err == nil {
		t.Fatal("WriteFrameCRC accepted an oversized payload")
	}
}

func TestCheckPeer(t *testing.T) {
	for _, c := range []struct {
		version           uint16
		fingerprint, want uint64
		err               string
	}{
		{ProtocolVersion, 7, 7, ""},
		{ProtocolVersion, 7, 0, ""}, // no plan of our own yet
		{ProtocolVersion - 1, 7, 7, "protocol version"},
		{ProtocolVersion, 8, 7, "fingerprint"},
	} {
		err := CheckPeer(c.version, c.fingerprint, c.want)
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("CheckPeer(%d, %d, %d) = %v, want %q", c.version, c.fingerprint, c.want, err, c.err)
		}
	}
	// A peer of another version is diagnosed by its version, whatever
	// layout follows it.
	foreign := binary.LittleEndian.AppendUint16(nil, ProtocolVersion+1)
	foreign = append(foreign, 1, 2, 3)
	h, herr := DecodeHello(foreign)
	r, rerr := DecodeReady(foreign)
	if herr != nil || rerr != nil || h.Version != ProtocolVersion+1 || r.Version != ProtocolVersion+1 {
		t.Fatalf("foreign-version frames: hello %+v (%v), ready %+v (%v)", h, herr, r, rerr)
	}
}
