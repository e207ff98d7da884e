package tcpnet

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// randBytes returns a payload of the given length (nil for 0, matching the
// codec's and gob's nil/empty collapse).
func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randID(rng *rand.Rand, n int) node.ID {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return node.ID(b)
}

func randReqID(rng *rand.Rand) consistency.RequestID {
	return consistency.RequestID{Client: randID(rng, 1+rng.Intn(8)), Seq: rng.Uint64()}
}

// wireMessageGenerators produces one generator per registered payload type.
// round 0 yields the zero value, round 1 the max-length-fields case, and
// later rounds randomized instances.
func wireMessageGenerators() map[string]func(rng *rand.Rand, round int) node.Message {
	const maxPayload = 1 << 16
	return map[string]func(rng *rand.Rand, round int) node.Message{
		"group.DataMsg": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				// Zero numeric fields; a nil interface payload is an encode
				// error by design (tested separately), so wrap the empty
				// message instead.
				return group.DataMsg{Payload: consistency.SyncRequest{}}
			case 1:
				return group.DataMsg{SrcEpoch: ^uint64(0), Gen: ^uint64(0), Seq: ^uint64(0),
					Payload: consistency.Request{ID: randReqID(rng), Payload: randBytes(rng, maxPayload)}}
			}
			return group.DataMsg{SrcEpoch: rng.Uint64(), Gen: rng.Uint64(), Seq: rng.Uint64(),
				Payload: consistency.GSNAssign{ID: randReqID(rng), GSN: rng.Uint64(), Update: rng.Intn(2) == 0}}
		},
		"group.AckMsg": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return group.AckMsg{}
			}
			return group.AckMsg{SrcEpoch: rng.Uint64(), DstEpoch: rng.Uint64(), Gen: rng.Uint64(), Expected: rng.Uint64()}
		},
		"group.HeartbeatMsg": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return group.HeartbeatMsg{}
			case 1:
				return group.HeartbeatMsg{Group: string(randID(rng, 255))}
			}
			return group.HeartbeatMsg{Group: string(randID(rng, 1+rng.Intn(16)))}
		},
		"consistency.Request": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return consistency.Request{}
			case 1:
				return consistency.Request{ID: randReqID(rng), Method: string(randID(rng, 128)),
					Payload: randBytes(rng, maxPayload), ReadOnly: true, Staleness: int(^uint(0) >> 1)}
			}
			return consistency.Request{ID: randReqID(rng), Method: "Set",
				Payload: randBytes(rng, rng.Intn(64)), ReadOnly: rng.Intn(2) == 0, Staleness: rng.Intn(10) - 1}
		},
		"consistency.Reply": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return consistency.Reply{}
			case 1:
				return consistency.Reply{ID: randReqID(rng), Payload: randBytes(rng, maxPayload),
					Err: string(randID(rng, 256)), T1: time.Duration(int64(^uint64(0) >> 1)),
					CSN: ^uint64(0), Replica: randID(rng, 64), Deferred: true}
			}
			return consistency.Reply{ID: randReqID(rng), Payload: randBytes(rng, rng.Intn(64)),
				T1:  time.Duration(rng.Int63n(int64(time.Minute))) - time.Second,
				CSN: rng.Uint64(), Replica: randID(rng, 3), Deferred: rng.Intn(2) == 0}
		},
		"consistency.GSNAssign": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.GSNAssign{}
			}
			return consistency.GSNAssign{ID: randReqID(rng), GSN: rng.Uint64(), Update: rng.Intn(2) == 0}
		},
		"consistency.GSNRequest": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.GSNRequest{}
			}
			return consistency.GSNRequest{ID: randReqID(rng), Update: rng.Intn(2) == 0}
		},
		"consistency.BodyRequest": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.BodyRequest{}
			}
			return consistency.BodyRequest{ID: randReqID(rng)}
		},
		"consistency.SyncRequest": func(rng *rand.Rand, round int) node.Message {
			return consistency.SyncRequest{}
		},
		"consistency.GSNQuery": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.GSNQuery{}
			}
			return consistency.GSNQuery{Epoch: rng.Uint64()}
		},
		"consistency.GSNReport": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return consistency.GSNReport{}
			case 1:
				assigns := make([]consistency.GSNAssign, 1024)
				for i := range assigns {
					assigns[i] = consistency.GSNAssign{
						ID: randReqID(rng), GSN: rng.Uint64(), Update: rng.Intn(2) == 0,
					}
				}
				return consistency.GSNReport{Epoch: rng.Uint64(), GSN: rng.Uint64(), Assigns: assigns}
			default:
				var assigns []consistency.GSNAssign
				for i := 0; i < rng.Intn(4); i++ {
					assigns = append(assigns, consistency.GSNAssign{
						ID: randReqID(rng), GSN: rng.Uint64(), Update: rng.Intn(2) == 0,
					})
				}
				return consistency.GSNReport{Epoch: rng.Uint64(), GSN: rng.Uint64(), Assigns: assigns}
			}
		},
		"consistency.AssignAck": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.AssignAck{}
			}
			return consistency.AssignAck{Epoch: rng.Uint64(), Frontier: rng.Uint64()}
		},
		"consistency.OrderCommit": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.OrderCommit{}
			}
			return consistency.OrderCommit{Epoch: rng.Uint64(), Floor: rng.Uint64()}
		},
		"consistency.StateUpdate": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return consistency.StateUpdate{}
			case 1:
				ids := make([]consistency.RequestID, 512)
				for i := range ids {
					ids[i] = randReqID(rng)
				}
				return consistency.StateUpdate{CSN: ^uint64(0), Snapshot: randBytes(rng, maxPayload), RecentIDs: ids}
			}
			var ids []consistency.RequestID
			for i := 0; i < rng.Intn(4); i++ {
				ids = append(ids, randReqID(rng))
			}
			return consistency.StateUpdate{CSN: rng.Uint64(), Snapshot: randBytes(rng, rng.Intn(256)), RecentIDs: ids}
		},
		"consistency.PerfBroadcast": func(rng *rand.Rand, round int) node.Message {
			switch round {
			case 0:
				return consistency.PerfBroadcast{}
			case 1:
				return consistency.PerfBroadcast{Replica: randID(rng, 64),
					TS: time.Duration(int64(^uint64(0) >> 1)), TQ: -time.Hour, TB: time.Hour,
					Deferred: true, Primary: true, Sequencer: randID(rng, 64), IsPublisher: true,
					NU: int(^uint(0) >> 1), TU: time.Hour, NL: -(int(^uint(0)>>1) - 1), TL: time.Hour}
			}
			return consistency.PerfBroadcast{Replica: randID(rng, 3),
				TS: time.Duration(rng.Int63n(int64(time.Second))), TQ: time.Duration(rng.Int63n(int64(time.Second))),
				TB: time.Duration(rng.Int63n(int64(time.Second))), Deferred: rng.Intn(2) == 0,
				Primary: rng.Intn(2) == 0, Sequencer: randID(rng, 3), IsPublisher: rng.Intn(2) == 0,
				NU: rng.Intn(100), TU: time.Duration(rng.Int63n(int64(time.Second))),
				NL: rng.Intn(100), TL: time.Duration(rng.Int63n(int64(time.Second)))}
		},
		"consistency.SequencerAnnounce": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.SequencerAnnounce{}
			}
			return consistency.SequencerAnnounce{Sequencer: randID(rng, 1+rng.Intn(16))}
		},
		"consistency.DigestAnnounce": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.DigestAnnounce{}
			}
			return consistency.DigestAnnounce{Applied: rng.Uint64(), Hash: rng.Uint64()}
		},
		"consistency.GSNAssignBatch": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.GSNAssignBatch{}
			}
			m := consistency.GSNAssignBatch{First: rng.Uint64(), ReadGSN: rng.Uint64()}
			for i := rng.Intn(64); i > 0; i-- {
				m.Updates = append(m.Updates, randReqID(rng))
			}
			for i := rng.Intn(64); i > 0; i-- {
				m.Reads = append(m.Reads, randReqID(rng))
			}
			return m
		},
		"consistency.ShardMapAnnounce": func(rng *rand.Rand, round int) node.Message {
			if round == 0 {
				return consistency.ShardMapAnnounce{}
			}
			n := 1 + rng.Intn(16)
			m := consistency.ShardMapAnnounce{Version: rng.Uint64(), Shards: uint32(n)}
			for i := 0; i < n; i++ {
				m.Starts = append(m.Starts, rng.Uint32())
				m.Owners = append(m.Owners, uint32(rng.Intn(n)))
			}
			return m
		},
	}
}

// gobFrame is the unit the reference codec carries: addressing plus an
// interface-typed payload, which gob can only decode once every concrete
// protocol message is registered (registerGobTypes).
type gobFrame struct {
	From    node.ID
	To      node.ID
	Payload node.Message
}

var registerGobOnce sync.Once

// registerGobTypes registers every protocol message with gob, the reference
// codec TestWireCodecDifferential compares the binary wire format against.
func registerGobTypes() {
	registerGobOnce.Do(func() {
		gob.Register(group.DataMsg{})
		gob.Register(group.AckMsg{})
		gob.Register(group.HeartbeatMsg{})
		gob.Register(consistency.Request{})
		gob.Register(consistency.Reply{})
		gob.Register(consistency.GSNAssign{})
		gob.Register(consistency.GSNRequest{})
		gob.Register(consistency.BodyRequest{})
		gob.Register(consistency.SyncRequest{})
		gob.Register(consistency.GSNQuery{})
		gob.Register(consistency.GSNReport{})
		gob.Register(consistency.StateUpdate{})
		gob.Register(consistency.PerfBroadcast{})
		gob.Register(consistency.SequencerAnnounce{})
		gob.Register(consistency.DigestAnnounce{})
		gob.Register(consistency.GSNAssignBatch{})
		gob.Register(consistency.ShardMapAnnounce{})
		gob.Register(consistency.AssignAck{})
		gob.Register(consistency.OrderCommit{})
	})
}

// gobRoundTrip pushes a frame through gob, the reference codec, and returns
// the decoded frame.
func gobRoundTrip(t *testing.T, f gobFrame) gobFrame {
	t.Helper()
	registerGobTypes()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out gobFrame
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// TestWireCodecDifferential round-trips every registered payload type with
// randomized instances (including zero values and max-length fields)
// through both the binary codec and gob, and requires:
//   - the two decoders agree (reflect.DeepEqual),
//   - encoding is byte-stable across runs,
//   - re-encoding a decoded frame reproduces the identical bytes.
func TestWireCodecDifferential(t *testing.T) {
	gens := wireMessageGenerators()
	if len(gens) != 19 {
		t.Fatalf("generator table covers %d types, want 19 (one per wire tag)", len(gens))
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20020623))
			for round := 0; round < 25; round++ {
				m := gen(rng, round)
				from, to := randID(rng, 1+rng.Intn(8)), randID(rng, 1+rng.Intn(8))

				buf, err := AppendFrame(nil, from, to, m)
				if err != nil {
					t.Fatalf("round %d: AppendFrame: %v", round, err)
				}
				buf2, err := AppendFrame(nil, from, to, m)
				if err != nil || !bytes.Equal(buf, buf2) {
					t.Fatalf("round %d: encoding is not byte-stable", round)
				}

				gotFrom, gotTo, gotMsg, err := DecodeFrame(buf[4:])
				if err != nil {
					t.Fatalf("round %d: DecodeFrame: %v", round, err)
				}
				if gotFrom != from || gotTo != to {
					t.Fatalf("round %d: addressing corrupted: %q->%q became %q->%q",
						round, from, to, gotFrom, gotTo)
				}

				ref := gobRoundTrip(t, gobFrame{From: from, To: to, Payload: m})
				if !reflect.DeepEqual(gotMsg, ref.Payload) {
					t.Fatalf("round %d: wire and gob decode disagree:\nwire: %#v\ngob:  %#v",
						round, gotMsg, ref.Payload)
				}

				re, err := AppendFrame(nil, gotFrom, gotTo, gotMsg)
				if err != nil || !bytes.Equal(buf, re) {
					t.Fatalf("round %d: decode+re-encode does not reproduce the frame bytes", round)
				}
			}
		})
	}
}

// TestWireCodecRejectsUnknown verifies unknown versions and tags are
// rejected — never misdecoded — and that every strict prefix of a valid
// frame body errors instead of panicking or silently succeeding.
func TestWireCodecRejectsUnknown(t *testing.T) {
	buf, err := AppendFrame(nil, "a", "b", consistency.Request{
		ID: consistency.RequestID{Client: "c", Seq: 9}, Method: "Get", Payload: []byte("key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]

	// Unknown version byte.
	bad := append([]byte(nil), body...)
	bad[0] = WireVersion + 1
	if _, _, _, err := DecodeFrame(bad); err == nil {
		t.Fatal("future version accepted")
	}

	// Unknown type tags, including 0.
	for _, tag := range []byte{0, tagOrderCommit + 1, 0x7f, 0xee, 0xff} {
		raw := []byte{WireVersion, 1, 'a', 1, 'b', tag}
		if _, _, m, err := DecodeFrame(raw); err == nil {
			t.Fatalf("unknown tag %d decoded as %T", tag, m)
		}
	}

	// Trailing bytes after a complete message.
	if _, _, _, err := DecodeFrame(append(append([]byte(nil), body...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// Every strict prefix must fail cleanly.
	for i := 0; i < len(body); i++ {
		if _, _, _, err := DecodeFrame(body[:i]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", i, len(body))
		}
	}

	// Unregistered payload types are an encode error, not a panic.
	type notRegistered struct{ X int }
	if _, err := AppendFrame(nil, "a", "b", notRegistered{X: 1}); err == nil {
		t.Fatal("unregistered payload type encoded")
	}
}

// TestWireEncodeZeroAlloc is the steady-state encode contract: appending a
// frame to a warm, reused buffer performs zero heap allocations. Both the
// bare protocol message and the group-substrate-wrapped (DataMsg) form —
// the transport's actual hot frame — are covered.
func TestWireEncodeZeroAlloc(t *testing.T) {
	payload := []byte("key=value")
	msgs := []node.Message{
		consistency.Request{ID: consistency.RequestID{Client: "c00", Seq: 7}, Method: "Set", Payload: payload},
		group.DataMsg{SrcEpoch: 3, Gen: 1, Seq: 42, Payload: consistency.Request{
			ID: consistency.RequestID{Client: "c00", Seq: 7}, Method: "Set", Payload: payload}},
		consistency.GSNAssign{ID: consistency.RequestID{Client: "c00", Seq: 7}, GSN: 99, Update: true},
	}
	buf := make([]byte, 0, 4096)
	for _, m := range msgs {
		m := m
		allocs := testing.AllocsPerRun(200, func() {
			b, err := AppendFrame(buf[:0], "p00", "p01", m)
			if err != nil || len(b) == 0 {
				panic("encode failed")
			}
		})
		if allocs != 0 {
			t.Errorf("%T: %v allocs per encoded frame, want 0", m, allocs)
		}
	}
}

// TestWireDecodedPayloadDoesNotAliasInput guards the decode copy rule:
// messages escape into the runtime asynchronously, so decoded byte fields
// must not alias the (reused) read buffer.
func TestWireDecodedPayloadDoesNotAliasInput(t *testing.T) {
	buf, err := AppendFrame(nil, "a", "b", consistency.Request{
		ID: consistency.RequestID{Client: "c", Seq: 1}, Method: "Set", Payload: []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]
	_, _, m, err := DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff // clobber the read buffer, as a reused buffer would be
	}
	if string(m.(consistency.Request).Payload) != "hello" {
		t.Fatal("decoded payload aliases the input buffer")
	}
}
