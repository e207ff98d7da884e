package tcpnet

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aqua/internal/codec"
	"aqua/internal/consistency"
)

// TestHostileGSNReportCountBounded is the finding-5 regression: a GSNReport
// frame claiming far more assignment entries than its bytes can hold must be
// rejected *before* the count sizes an allocation. Each entry costs at least
// 4 wire bytes but ~48 heap bytes, so a 1 MiB frame with a 1 Mi-entry count
// used to pin ~48 MiB per frame — an amplification a hostile peer can repeat
// per connection. The old 1-byte-per-entry guard let such a frame through;
// the decode loop then failed on truncation, but only after allocating.
func TestHostileGSNReportCountBounded(t *testing.T) {
	const count = 1 << 20
	body := []byte{WireVersion}
	body = codec.AppendString(body, "a") // from
	body = codec.AppendString(body, "b") // to
	body = append(body, tagGSNReport)
	body = binary.AppendUvarint(body, 1)     // epoch
	body = binary.AppendUvarint(body, 9)     // gsn
	body = binary.AppendUvarint(body, count) // hostile assign count
	// One byte per claimed entry: enough to pass a 1-byte-per-entry guard,
	// a quarter of what real entries need.
	body = append(body, make([]byte, count)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := DecodeFrame(body)
	runtime.ReadMemStats(&after)

	if err == nil {
		t.Fatal("hostile GSNReport frame decoded")
	}
	// The rejection must happen before make([]GSNAssign, count): allow
	// generous incidental slack, but nothing near count*sizeof(GSNAssign).
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4<<20 {
		t.Fatalf("decoding hostile frame allocated %d bytes", delta)
	}

	// A report whose count matches its bytes still round-trips.
	want := consistency.GSNReport{Epoch: 1, GSN: 9, Assigns: []consistency.GSNAssign{
		{ID: consistency.RequestID{Client: "c", Seq: 4}, GSN: 8, Update: true},
		{ID: consistency.RequestID{Client: "c", Seq: 5}, GSN: 9},
	}}
	frame, err := AppendFrame(nil, "a", "b", want)
	if err != nil {
		t.Fatal(err)
	}
	_, _, m, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(consistency.GSNReport)
	if !ok || got.Epoch != want.Epoch || got.GSN != want.GSN || len(got.Assigns) != 2 ||
		got.Assigns[0] != want.Assigns[0] || got.Assigns[1] != want.Assigns[1] {
		t.Fatalf("round trip mismatch: %+v", m)
	}
}
