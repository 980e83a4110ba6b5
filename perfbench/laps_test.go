package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/fleet"
)

// decodeConn decodes a connection's bytes with the program's decoders.
func decodeConn(t *testing.T, c *wireConn) []fleet.Record {
	t.Helper()
	var out []fleet.Record
	if !c.text {
		r := fleet.NewReader(bytes.NewReader(c.buf))
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec)
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(c.buf))
	for sc.Scan() {
		rec, skip, err := fleet.ParseLine(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		if !skip {
			out = append(out, rec)
		}
	}
	return out
}

func smallTrace(t *testing.T, tenants int, span float64) *fleetTrace {
	t.Helper()
	tr, err := genFleetTrace(3, tenants, span)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLapsShiftTimeAndKeepTenantOrder(t *testing.T) {
	tr := smallTrace(t, 6, 900)
	const laps = 3
	a := newArena()
	defer a.free()
	conns, err := encodeConns(a, tr, laps, true, noFault)
	if err != nil {
		t.Fatal(err)
	}
	if conns[0].text || !conns[1].text {
		t.Fatal("connection 0 speaks PFW1, connection 1 the text protocol")
	}
	for ci, c := range conns {
		got := decodeConn(t, c)
		if len(got) != c.total || c.total != laps*len(c.lapRecs) || len(c.ends) != c.total {
			t.Fatalf("conn %d: decoded %d, total %d", ci, len(got), c.total)
		}
		last := map[string]float64{}
		for p, rec := range got {
			lap, ri := c.lapIndex(p)
			if want := shifted(tr.recs[ri], lap, tr.span); !reflect.DeepEqual(rec, want) {
				t.Fatalf("conn %d pos %d: decoded %+v, want %+v", ci, p, rec, want)
			}
			if connOf(tr.meta[ri].tenant) != ci {
				t.Fatalf("tenant %s on the wrong connection", rec.Event.Tenant)
			}
			if rec.Event.Time < last[rec.Event.Tenant] {
				t.Fatalf("tenant %s goes back in time at pos %d", rec.Event.Tenant, p)
			}
			last[rec.Event.Tenant] = rec.Event.Time
			if !rec.Failure && rec.Event.Kind == 0 && rec.Event.Error.Time != rec.Event.Time {
				t.Fatalf("error event time not shifted with the record")
			}
		}
		// Record boundaries: each record's bytes decode to exactly it.
		if c.startOf(1) != int(c.ends[0]) || int(c.ends[c.total-1]) != len(c.buf) {
			t.Fatalf("conn %d: record ends do not tile the buffer", ci)
		}
	}
}

func TestOpenLoopDueTimesAndApplyMapping(t *testing.T) {
	tr := smallTrace(t, 5, 600)
	a := newArena()
	defer a.free()
	conns, err := encodeConns(a, tr, 2, false, noFault)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 1000.0
	rig := &fleetRig{p: fleetParams{Tenants: 5, Open: true, Rate: rate}, tr: tr, conns: conns, startNs: 7e9}
	rig.index()
	L := len(tr.meta)
	// Merging both connections by due time reproduces the global order:
	// global record g of lap l is due at start + (l*L + g)/rate.
	seen := make(map[int64]bool)
	for _, c := range conns {
		prev := int64(-1)
		for p := 0; p < c.total; p++ {
			lap, ri := c.lapIndex(p)
			due := rig.slotNs(c, p)
			g := int64(lap*L) + int64(ri)
			if want := rig.startNs + int64(float64(g)*1e9/rate); due != want {
				t.Fatalf("pos %d due %d, want %d", p, due, want)
			}
			if due <= prev {
				t.Fatal("due times must increase along a connection")
			}
			prev = due
			seen[g] = true
		}
	}
	if len(seen) != 2*L {
		t.Fatalf("the two connections cover %d of %d global slots", len(seen), 2*L)
	}
	// The k-th Apply of a tenant maps to its k-th event record.
	for ti := 0; ti < 5; ti++ {
		c := conns[connOf(int32(ti))]
		k := 0
		for p := 0; p < c.total; p++ {
			_, ri := c.lapIndex(p)
			if tr.meta[ri].tenant != int32(ti) || tr.meta[ri].failure {
				continue
			}
			pos := rig.tenantPos[ti]
			got := (k/len(pos))*len(c.lapRecs) + int(pos[k%len(pos)])
			if got != p {
				t.Fatalf("tenant %d apply %d maps to pos %d, want %d", ti, k, got, p)
			}
			k++
		}
	}
}
