package apps

import (
	"bytes"
	"reflect"
	"testing"

	"aqua/internal/app"
)

// restoreTarget is one application as FuzzAppRestore drives it: a
// constructor, the update that turns one fuzz line into state, and the
// reads that expose that state.
type restoreTarget struct {
	name   string
	fresh  func() app.Application
	update string
	reads  func(a app.Application, lines [][]byte) []string
}

func restoreTargets() []restoreTarget {
	read := func(a app.Application, method string, payload []byte) string {
		out, err := a.Read(method, payload)
		if err != nil {
			return "error: " + err.Error()
		}
		return string(out)
	}
	return []restoreTarget{
		{"kvstore", func() app.Application { return NewKVStore() }, "Set",
			func(a app.Application, lines [][]byte) []string {
				out := []string{read(a, "Version", nil)}
				for _, l := range lines {
					key, _, _ := bytes.Cut(l, []byte{'='})
					out = append(out, read(a, "Get", key))
				}
				return out
			}},
		{"document", func() app.Application { return NewDocument() }, "Append",
			func(a app.Application, _ [][]byte) []string {
				return []string{read(a, "Version", nil), read(a, "Fetch", nil), read(a, "Line", []byte("0"))}
			}},
		{"ticker", func() app.Application { return NewTicker() }, "Quote",
			func(a app.Application, _ [][]byte) []string {
				return []string{read(a, "Version", nil), read(a, "Board", nil)}
			}},
	}
}

// FuzzAppRestore holds every application's Restore to two rules:
//
//   - arbitrary bytes never panic, neither in Restore nor in the reads of
//     whatever state it accepted;
//   - a snapshot an application produced restores, in a fresh instance,
//     to the same reads (the fuzz input's lines are the updates applied
//     first).
func FuzzAppRestore(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a=1\nb=2\na=3"))
	f.Add([]byte("ACME=12345\nB=-7\n"))
	f.Add([]byte{kvSnapFormat, 2, 1, 1, 'a', 1, '1'})
	f.Add([]byte{docSnapFormat, 1, 1, 2, 'h', 'i'})
	f.Add([]byte{tickerSnapFormat, 1, 1, 1, 'A', 0xc8, 0x01})
	f.Add([]byte{kvSnapFormat, 7, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Split(data, []byte{'\n'})
		for _, tg := range restoreTargets() {
			if a := tg.fresh(); a.Restore(data) == nil {
				tg.reads(a, lines)
			}

			src := tg.fresh()
			for _, l := range lines {
				_, _ = src.ApplyUpdate(tg.update, l) // malformed lines are refused, not applied
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", tg.name, err)
			}
			dst := tg.fresh()
			if err := dst.Restore(snap); err != nil {
				t.Fatalf("%s: restoring its own snapshot: %v", tg.name, err)
			}
			if got, want := tg.reads(dst, lines), tg.reads(src, lines); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: restored reads %q, want %q", tg.name, got, want)
			}
		}
	})
}
