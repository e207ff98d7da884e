package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"aqua/internal/app"
	"aqua/internal/codec"
)

// Ticker is the paper's online stock-trading example (Section 1): a
// real-time quote board where traders tolerate slightly stale quotes in
// exchange for timely answers. Prices are fixed-point cents to keep replica
// state bit-identical.
//
// Methods:
//
//	"Quote"  payload "SYM=12345"  → reply "ok" (price in cents)
//	"Trade"  payload "SYM:+50"    → reply new price (relative adjustment)
//	"Price"  payload "SYM"        → reply price in cents (read-only)
//	"Board"  payload ""           → reply "SYM1=...;SYM2=..." (read-only)
type Ticker struct {
	cents   map[string]int64
	symbols []string // insertion order, for a deterministic Board
	version uint64
}

var _ app.Application = (*Ticker)(nil)

// NewTicker returns an empty quote board.
func NewTicker() *Ticker {
	return &Ticker{cents: make(map[string]int64)}
}

// Snapshot format, in internal/codec's fields. Prices ride in insertion
// order rather than map order, so the bytes are canonical.
//
//	byte    format tag (tickerSnapFormat)
//	uvarint version counter
//	uvarint symbol count n
//	n ×     (string symbol, varint price in cents)
const tickerSnapFormat = 3

// ApplyUpdate implements app.Application.
func (t *Ticker) ApplyUpdate(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Quote":
		sym, raw, ok := bytes.Cut(payload, []byte{'='})
		if !ok {
			return nil, fmt.Errorf("ticker: Quote payload %q lacks '='", payload)
		}
		cents, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ticker: bad price %q: %w", raw, err)
		}
		t.set(string(sym), cents)
		t.version++
		return []byte("ok"), nil
	case "Trade":
		sym, raw, ok := bytes.Cut(payload, []byte{':'})
		if !ok {
			return nil, fmt.Errorf("ticker: Trade payload %q lacks ':'", payload)
		}
		delta, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ticker: bad delta %q: %w", raw, err)
		}
		next := t.cents[string(sym)] + delta
		t.set(string(sym), next)
		t.version++
		return []byte(strconv.FormatInt(next, 10)), nil
	default:
		return nil, fmt.Errorf("ticker: unknown update method %q", method)
	}
}

func (t *Ticker) set(sym string, cents int64) {
	if _, ok := t.cents[sym]; !ok {
		t.symbols = append(t.symbols, sym)
	}
	t.cents[sym] = cents
}

// Read implements app.Application.
func (t *Ticker) Read(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Price":
		cents, ok := t.cents[string(payload)]
		if !ok {
			return nil, fmt.Errorf("ticker: unknown symbol %q", payload)
		}
		return []byte(strconv.FormatInt(cents, 10)), nil
	case "Board":
		var buf bytes.Buffer
		for i, sym := range t.symbols {
			if i > 0 {
				buf.WriteByte(';')
			}
			fmt.Fprintf(&buf, "%s=%d", sym, t.cents[sym])
		}
		return buf.Bytes(), nil
	case "Version":
		return []byte(fmt.Sprintf("v%d", t.version)), nil
	default:
		return nil, fmt.Errorf("ticker: unknown read method %q", method)
	}
}

// Version returns the number of updates applied.
func (t *Ticker) Version() uint64 { return t.version }

// Snapshot implements app.Application; the encoding is canonical.
func (t *Ticker) Snapshot() ([]byte, error) {
	buf := []byte{tickerSnapFormat}
	buf = binary.AppendUvarint(buf, t.version)
	buf = binary.AppendUvarint(buf, uint64(len(t.symbols)))
	for _, sym := range t.symbols {
		buf = codec.AppendString(buf, sym)
		buf = binary.AppendVarint(buf, t.cents[sym])
	}
	return buf, nil
}

// Restore implements app.Application.
func (t *Ticker) Restore(snapshot []byte) error {
	r := codec.NewReader(snapshot)
	if r.Byte() != tickerSnapFormat {
		return fmt.Errorf("ticker restore: bad snapshot format")
	}
	version := r.Uvarint()
	// A symbol is at least a length byte and a price byte.
	symbols := make([]string, r.Count(2))
	cents := make(map[string]int64, len(symbols))
	for i := range symbols {
		symbols[i] = r.Str()
		cents[symbols[i]] = r.Varint()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("ticker restore: %w", err)
	}
	t.cents = cents
	t.symbols = symbols
	t.version = version
	return nil
}
