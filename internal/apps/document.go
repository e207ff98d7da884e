package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"aqua/internal/app"
	"aqua/internal/codec"
)

// Document is the paper's motivating example (Section 2): "a
// document-sharing application in which multiple readers and writers
// concurrently access a document that is updated in sequential mode", where
// a client can ask for "a copy of the document that is not more than 5
// versions old within 2.0 seconds with a probability of at least 0.7".
//
// Methods:
//
//	"Append"  payload "line"   → reply "v<N>"
//	"Replace" payload "i:line" → reply "v<N>"
//	"Fetch"   payload ""       → reply full text (read-only)
//	"Line"    payload "i"      → reply line i (read-only)
//	"Version" payload ""       → reply "v<N>" (read-only)
type Document struct {
	lines   []string
	version uint64
}

var _ app.Application = (*Document)(nil)

// NewDocument returns an empty document.
func NewDocument() *Document { return &Document{} }

// Snapshot format, in internal/codec's fields:
//
//	byte    format tag (docSnapFormat)
//	uvarint version counter
//	uvarint line count n
//	n ×     string line
const docSnapFormat = 2

// ApplyUpdate implements app.Application.
func (d *Document) ApplyUpdate(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Append":
		d.lines = append(d.lines, string(payload))
	case "Replace":
		idxRaw, line, ok := bytes.Cut(payload, []byte{':'})
		if !ok {
			return nil, fmt.Errorf("document: Replace payload %q lacks ':'", payload)
		}
		i, err := strconv.Atoi(string(idxRaw))
		if err != nil || i < 0 || i >= len(d.lines) {
			return nil, fmt.Errorf("document: Replace index %q out of range", idxRaw)
		}
		d.lines[i] = string(line)
	default:
		return nil, fmt.Errorf("document: unknown update method %q", method)
	}
	d.version++
	return []byte(fmt.Sprintf("v%d", d.version)), nil
}

// Read implements app.Application.
func (d *Document) Read(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Fetch":
		var buf bytes.Buffer
		for _, l := range d.lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		return buf.Bytes(), nil
	case "Line":
		i, err := strconv.Atoi(string(payload))
		if err != nil || i < 0 || i >= len(d.lines) {
			return nil, fmt.Errorf("document: Line index %q out of range", payload)
		}
		return []byte(d.lines[i]), nil
	case "Version":
		return []byte(fmt.Sprintf("v%d", d.version)), nil
	default:
		return nil, fmt.Errorf("document: unknown read method %q", method)
	}
}

// Version returns the number of updates applied.
func (d *Document) Version() uint64 { return d.version }

// Snapshot implements app.Application.
func (d *Document) Snapshot() ([]byte, error) {
	buf := []byte{docSnapFormat}
	buf = binary.AppendUvarint(buf, d.version)
	buf = binary.AppendUvarint(buf, uint64(len(d.lines)))
	for _, l := range d.lines {
		buf = codec.AppendString(buf, l)
	}
	return buf, nil
}

// Restore implements app.Application.
func (d *Document) Restore(snapshot []byte) error {
	r := codec.NewReader(snapshot)
	if r.Byte() != docSnapFormat {
		return fmt.Errorf("document restore: bad snapshot format")
	}
	version := r.Uvarint()
	lines := make([]string, r.Count(1))
	for i := range lines {
		lines[i] = r.Str()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("document restore: %w", err)
	}
	d.lines = lines
	d.version = version
	return nil
}
