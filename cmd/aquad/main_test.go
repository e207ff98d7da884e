package main

import (
	"strings"
	"testing"
	"time"
)

func TestConfigure(t *testing.T) {
	const spec = "p00=h:1,p01=h:2,p02=h:3,s00=h:4,c00=h:5"
	base := func(mod func(*options)) options {
		o := options{cluster: spec, primaries: "p00,p01,p02", clients: "c00", host: "p01",
			lazy: time.Second, app: "kv", shardPrim: 2, shardSec: 1}
		mod(&o)
		return o
	}
	sharded := func(mod func(*options)) options {
		return base(func(o *options) {
			o.cluster, o.primaries, o.host, o.shards = "c00=h:5", "", "", 1
			mod(o)
		})
	}
	tests := []struct {
		name    string
		o       options
		wantErr string
		check   func(*testing.T, *daemon)
	}{
		{name: "cluster mode hosts its subset", o: base(func(*options) {}), check: func(t *testing.T, d *daemon) {
			if len(d.hosted) != 1 || d.hosted[0] != "p01" || d.info.Sequencer != "p00" {
				t.Fatalf("hosted %v, sequencer %s", d.hosted, d.info.Sequencer)
			}
			if _, ok := d.peers["p01"]; ok || len(d.peers) != 4 {
				t.Fatalf("peers = %v", d.peers)
			}
			if !d.svc.FastReads || d.svc.Durable || len(d.svc.ExtraClients) != 1 {
				t.Fatalf("svc = %+v", d.svc)
			}
		}},
		{name: "durable flags in cluster mode", o: base(func(o *options) {
			o.walDir, o.snapEvery, o.replAssign = "d", 4, true
		}), check: func(t *testing.T, d *daemon) {
			if !d.svc.Durable || d.svc.SnapshotEvery != 4 || !d.svc.ReplicatedAssign {
				t.Fatalf("svc = %+v", d.svc)
			}
		}},
		{name: "durable flags under shards", o: sharded(func(o *options) {
			o.walDir, o.snapEvery, o.replAssign = "d", 4, true
		}), check: func(t *testing.T, d *daemon) {
			s := d.svc
			if !s.Durable || s.SnapshotEvery != 4 || !s.ReplicatedAssign || !s.FastReads {
				t.Fatalf("svc = %+v", s)
			}
			if d.shards != 1 || s.Primaries != 3 || s.Secondaries != 1 || d.peers["c00"] != "h:5" {
				t.Fatalf("shards %d, svc %+v, peers %v", d.shards, s, d.peers)
			}
		}},
		{name: "shards rejects -host", o: sharded(func(o *options) { o.host = "p00" }), wantErr: "-host"},
		{name: "shards rejects -primaries", o: sharded(func(o *options) { o.primaries = "zz" }), wantErr: "-primaries"},
		{name: "shards rejects a bad -cluster entry", o: sharded(func(o *options) { o.cluster = "c00" }), wantErr: "bad entry"},
		{name: "missing -host", o: base(func(o *options) { o.host = "" }), wantErr: "-host"},
		{name: "unknown -app", o: base(func(o *options) { o.app = "nope" }), wantErr: "-app"},
		{name: "bad -primaries", o: base(func(o *options) { o.primaries = "p00" }), wantErr: "primaries"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := configure(tt.o)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tt.check(t, d)
		})
	}
}
