package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// fleetParams shapes one fleet workload run.
type fleetParams struct {
	Tenants int
	LapSpan float64 // simulated seconds per lap of the generated trace
	Open    bool    // open loop at Rate; otherwise send as fast as possible
	Rate    float64 // records/s over both connections (open loop)
	Text    bool    // second connection speaks the text line protocol
	Seconds float64
	MaxRate float64 // sizing bound [records/s] for the pre-encoded laps (closed loop)
	Sample  int     // traced: 1 in Sample records of a connection get spans
	fault   encodeFault
}

// encodeFault makes the sent bytes differ from the bookkept records, so
// the self-tests can show each output check catches a lost or reordered
// record: Drop is never sent, SwapA and SwapB are sent in each other's
// place. All are connection-0 positions in the first lap; -1 disables.
type encodeFault struct {
	Drop, SwapA, SwapB int
}

var noFault = encodeFault{Drop: -1, SwapA: -1, SwapB: -1}

// recMeta is what the checks need of one trace record once it is encoded.
type recMeta struct {
	tenant  int32
	failure bool
	load    bool // a "load" sample
	kind    runtime.EventKind
	sev     eventlog.Severity
	value   float64
}

// event rebuilds the fields of the record that pfmd's tenant apply reads.
func (m recMeta) event() fleet.Event {
	ev := fleet.Event{Kind: m.kind, Value: m.value, Error: eventlog.Event{Severity: m.sev}}
	if m.load {
		ev.Variable = "load"
	}
	return ev
}

// fleetTrace is one lap of the generated multi-tenant trace.
type fleetTrace struct {
	recs []fleet.Record // merged time order; dropped once encoded
	meta []recMeta
	span float64 // domain-time shift between laps
}

// genFleetTrace simulates the Zipf(1) tenants for one lap span with the
// scp generator (the same path as loggen -tenants).
func genFleetTrace(seed int64, tenants int, span float64) (*fleetTrace, error) {
	multi, err := scp.NewMulti(scp.MultiConfig{Tenants: tenants, BaseSeed: seed, Skew: pfmdSkew})
	if err != nil {
		return nil, err
	}
	if err := multi.Run(span); err != nil {
		return nil, err
	}
	tr := &fleetTrace{recs: fleet.SCPRecords(multi.Drain()), span: span}
	index := make(map[string]int32, tenants)
	for i, id := range multi.IDs() {
		index[id] = int32(i)
	}
	tr.meta = make([]recMeta, len(tr.recs))
	for i, r := range tr.recs {
		tr.meta[i] = recMeta{
			tenant: index[r.Event.Tenant], failure: r.Failure, load: r.Event.Variable == "load",
			kind: r.Event.Kind, sev: r.Event.Error.Severity, value: r.Event.Value,
		}
	}
	return tr, nil
}

// shifted returns rec moved lap laps later in domain time. Each lap
// shifts by the lap span, so every tenant's records stay in order.
func shifted(rec fleet.Record, lap int, span float64) fleet.Record {
	d := float64(lap) * span
	rec.Event.Time += d
	if !rec.Failure && rec.Event.Kind == runtime.KindError {
		rec.Event.Error.Time += d
	}
	return rec
}

// wireConn is one sender connection's pre-encoded stream.
type wireConn struct {
	text    bool
	buf     []byte   // arena
	ends    []uint32 // arena: byte end of each record, over all laps
	lapRecs []int32  // trace index of each of this connection's records in one lap
	total   int      // records encoded (laps * len(lapRecs))

	sent       int     // records written before the sender stopped
	ranOut     int64   // closed loop: clock when the encoded laps ran out (0 = never)
	chunkStart []int64 // closed loop: clock at each write
	chunkFirst []int   // closed loop: first record of each write
	lags       []float64
}

// connOf assigns tenants to the two connections: even tenant indices to
// connection 0 (always PFW1), odd to connection 1.
func connOf(tenant int32) int { return int(tenant & 1) }

// encodeConns encodes laps laps of the trace for both connections with
// the program's own encoders (fleet.Writer, fleet.FormatRecord), into
// arena memory.
func encodeConns(a *arena, tr *fleetTrace, laps int, text bool, fault encodeFault) ([2]*wireConn, error) {
	var conns [2]*wireConn
	for c := range conns {
		conns[c] = &wireConn{text: c == 1 && text}
	}
	for i, m := range tr.meta {
		c := conns[connOf(m.tenant)]
		c.lapRecs = append(c.lapRecs, int32(i))
	}
	for ci, c := range conns {
		c.total = laps * len(c.lapRecs)
		ends, err := arenaSlice[uint32](a, c.total)
		if err != nil {
			return conns, err
		}
		c.ends = ends
		out := &arenaBuffer{a: a}
		var w *fleet.Writer
		if !c.text {
			w = fleet.NewWriter(out)
		}
		encode := func(rec fleet.Record) error {
			if c.text {
				out.WriteString(fleet.FormatRecord(rec))
				_, err := out.Write([]byte{'\n'})
				return err
			}
			if err := w.Write(rec); err != nil {
				return err
			}
			return w.Flush()
		}
		for lap := 0; lap < laps; lap++ {
			for k := range c.lapRecs {
				p := lap*len(c.lapRecs) + k
				src := k
				switch {
				case ci == 0 && p == fault.SwapA:
					src = fault.SwapB
				case ci == 0 && p == fault.SwapB:
					src = fault.SwapA
				}
				if !(ci == 0 && p == fault.Drop) { // a dropped record is bookkept but never sent
					if err := encode(shifted(tr.recs[c.lapRecs[src]], lap, tr.span)); err != nil {
						return conns, err
					}
				}
				if out.Len() > math.MaxUint32 {
					return conns, errors.New("encoded connection exceeds 4 GiB")
				}
				c.ends[p] = uint32(out.Len())
			}
		}
		if w != nil {
			if err := w.Flush(); err != nil {
				return conns, err
			}
		}
		c.buf = out.Bytes()
	}
	return conns, nil
}

func (c *wireConn) startOf(p int) int {
	if p == 0 {
		return 0
	}
	return int(c.ends[p-1])
}

// lapIndex maps connection position p to (lap, trace index).
func (c *wireConn) lapIndex(p int) (int, int32) {
	return p / len(c.lapRecs), c.lapRecs[p%len(c.lapRecs)]
}

// fleetInputs are a fleet workload's generated inputs.
type fleetInputs struct {
	tr    *fleetTrace
	conns [2]*wireConn
	arena *arena
}

// free releases the inputs' arena memory.
func (in *fleetInputs) free() {
	if in.arena != nil {
		in.arena.free()
	}
	*in = fleetInputs{}
}

// prepareFleet generates and encodes the workload's inputs (untimed).
// The closed loop gets laps for MaxRate records/s over the whole run.
func prepareFleet(seed int64, p fleetParams) (*fleetInputs, error) {
	tr, err := genFleetTrace(seed, p.Tenants, p.LapSpan)
	if err != nil {
		return nil, err
	}
	rate := p.MaxRate
	if p.Open {
		rate = p.Rate
	}
	laps := int(math.Ceil(rate*p.Seconds/float64(len(tr.meta)))) + 1
	a := newArena()
	conns, err := encodeConns(a, tr, laps, p.Text, p.fault)
	if err != nil {
		a.free()
		return nil, err
	}
	tr.recs = nil
	debug.FreeOSMemory() // hand the generator's garbage back before measuring
	return &fleetInputs{tr: tr, conns: conns, arena: a}, nil
}

// decodeCosts times the program's decoders on the workload's own bytes
// (the first lap of each connection), outside the serving path:
// fleet.Reader.Next over PFW1 and fleet.ParseLine over text [ns/record].
// A workload without a text connection reports 0 for it.
func decodeCosts(conns [2]*wireConn) (wireNs, textNs float64, err error) {
	for _, c := range conns {
		lap := c.buf[:c.ends[len(c.lapRecs)-1]]
		if c.text {
			lines := strings.Split(string(lap), "\n")
			t0 := time.Now()
			for _, l := range lines {
				if _, _, err := fleet.ParseLine(l); err != nil {
					return 0, 0, err
				}
			}
			textNs = float64(time.Since(t0).Nanoseconds()) / float64(len(lines))
			continue
		}
		if wireNs != 0 {
			continue
		}
		r := fleet.NewReader(bytes.NewReader(lap))
		t0 := time.Now()
		n := 0
		for {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			n++
		}
		wireNs = float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	}
	return wireNs, textNs, nil
}
