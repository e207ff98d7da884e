// Package apps provides replicated applications built on the app contract:
// a versioned key-value store (the experiment workload), a shared document
// (the Section 2 motivating example), and a stock ticker (the Section 1
// real-time database example).
package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"aqua/internal/app"
	"aqua/internal/codec"
)

// KVStore is a deterministic string key-value store with a version counter.
//
// Methods:
//
//	"Set"  payload "key=value" → reply "v<N>"
//	"Del"  payload "key"       → reply "v<N>"
//	"Get"  payload "key"       → reply "value" (read-only)
//	"Version" payload ""       → reply "v<N>" (read-only)
type KVStore struct {
	data    map[string]string
	version uint64

	// snapCache memoizes the encoded snapshot for snapVersion: the lazy
	// publisher snapshots every interval whether or not updates arrived, and
	// the bytes are immutable once handed out, so re-encoding an unchanged
	// store is pure waste. keyScratch is reused for the sort.
	snapCache   []byte
	snapVersion uint64
	keyScratch  []string
}

var _ app.Application = (*KVStore)(nil)

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{data: make(map[string]string)}
}

// Snapshot format: a canonical, allocation-lean binary encoding in
// internal/codec's fields. Pairs are sorted by key so snapshots are
// canonical: replicas with identical state produce identical bytes, which
// the anti-entropy digest comparison depends on.
//
//	byte    format tag (kvSnapFormat)
//	uvarint version counter
//	uvarint pair count n
//	n ×     (string key, string value)
const kvSnapFormat = 1

// ApplyUpdate implements app.Application.
func (k *KVStore) ApplyUpdate(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Set":
		key, value, ok := bytes.Cut(payload, []byte{'='})
		if !ok {
			return nil, fmt.Errorf("kvstore: Set payload %q lacks '='", payload)
		}
		k.data[string(key)] = string(value)
	case "Del":
		delete(k.data, string(payload))
	default:
		return nil, fmt.Errorf("kvstore: unknown update method %q", method)
	}
	k.version++
	return versionReply(k.version), nil
}

// versionReply renders "v<N>" without the fmt machinery.
func versionReply(v uint64) []byte {
	buf := make([]byte, 1, 12)
	buf[0] = 'v'
	return strconv.AppendUint(buf, v, 10)
}

// Read implements app.Application.
func (k *KVStore) Read(method string, payload []byte) ([]byte, error) {
	switch method {
	case "Get":
		return []byte(k.data[string(payload)]), nil
	case "Version":
		return versionReply(k.version), nil
	default:
		return nil, fmt.Errorf("kvstore: unknown read method %q", method)
	}
}

// Version returns the number of updates applied.
func (k *KVStore) Version() uint64 { return k.version }

// Snapshot implements app.Application; the encoding is canonical (sorted).
// The returned bytes are shared with later callers until the store changes
// again; receivers must treat snapshots as read-only (they already do — the
// bytes travel inside simulator messages by reference).
func (k *KVStore) Snapshot() ([]byte, error) {
	if k.snapCache != nil && k.snapVersion == k.version {
		return k.snapCache, nil
	}
	keys := k.keyScratch[:0]
	size := 1 + binary.MaxVarintLen64 + binary.MaxVarintLen64
	for key, value := range k.data {
		keys = append(keys, key)
		size += 2*binary.MaxVarintLen64 + len(key) + len(value)
	}
	sort.Strings(keys)
	k.keyScratch = keys

	buf := make([]byte, 1, size)
	buf[0] = kvSnapFormat
	buf = binary.AppendUvarint(buf, k.version)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, key := range keys {
		buf = codec.AppendString(buf, key)
		buf = codec.AppendString(buf, k.data[key])
	}
	k.snapCache = buf
	k.snapVersion = k.version
	return buf, nil
}

// Restore implements app.Application.
func (k *KVStore) Restore(snapshot []byte) error {
	r := codec.NewReader(snapshot)
	if r.Byte() != kvSnapFormat {
		return fmt.Errorf("kvstore restore: bad snapshot format")
	}
	version := r.Uvarint()
	n := r.Count(2) // a pair is at least two length bytes
	data := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := r.Str()
		data[key] = r.Str()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("kvstore restore: %w", err)
	}
	k.data = data
	k.version = version
	// The incoming bytes are the canonical encoding of the state just
	// adopted, so they can serve future Snapshot calls directly.
	k.snapCache = snapshot
	k.snapVersion = version
	return nil
}
