package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// stampUnit is the resolution of the apply stamps, which are kept as
// uint32 (up to 429 s after the run's clock base).
const stampUnit = 100 // ns

// latencySample: one record in latencySample per connection is stamped
// at Apply and gives a latency sample; rates come from the fleet's own
// applied counter, and completeness from the output checks.
const latencySample = 16

// fleetRig is one running fleet plus the benchmark's bookkeeping.
type fleetRig struct {
	p      fleetParams
	tr     *fleetTrace
	conns  [2]*wireConn
	f      *fleet.Fleet
	led    *obs.ScopedLedger
	ls     *fleet.ListenSource
	states []*fleetState
	simNow atomic.Uint64
	clock  func() int64
	sp     *spanRecorder

	// tenantPos[t] lists the connection positions (within one lap) of
	// tenant t's event records, so its k-th Apply maps to one record;
	// tenantAll[t] does the same for all of t's records, failures
	// included (what the pump sees).
	tenantPos [][]int32
	tenantAll [][]int32
	applyAt   [2][]uint32 // apply clock / stampUnit per sampled position, 0 = never
	ingestEnd [2][]atomic.Int64
	ingestSp  [2][]uint64

	cycleBegin atomic.Int64
	cycleSpan  atomic.Uint64
	cycles     [][2]int64 // begin (first layer score call), end
	startNs    int64
}

// setupFleet builds and starts the fleet with pfmd -fleet's wiring
// (cmd/pfmd/fleet.go:99-182) and opens its TCP listener
// (fleet.go:222-226): the timed set-up of the TCP workloads. The
// benchmark drives cycles itself on pfmd's 250 ms cadence through
// EvaluateCycle, which is what the fleet's own ticker calls, so it can
// time them; EvalInterval is therefore 0 here.
func setupFleet(ctx context.Context, rig *fleetRig) (float64, error) {
	t0 := time.Now()
	n := rig.p.Tenants
	weights := scp.ZipfWeights(n, pfmdSkew)
	specs := make([]fleet.TenantSpec, n)
	index := make(map[string]int32, n)
	for i := range specs {
		specs[i] = fleet.TenantSpec{ID: scp.TenantID(i), Criticality: weights[i]}
		index[specs[i].ID] = int32(i)
	}
	capacity := scp.DefaultConfig().Capacity
	led, err := obs.NewScopedLedger(obs.LedgerConfig{
		LeadTime: pfmdLeadTime, Slack: pfmdLedgerSlack, Window: pfmdLedgerWin,
	}, pfmdScopes, "load", "errors")
	if err != nil {
		return 0, err
	}
	states := make([]*fleetState, n)
	sp := rig.sp
	onBatch := func(k int, start int64) {
		rig.cycleBegin.CompareAndSwap(0, start)
		if sp != nil {
			sp.add(0, rig.cycleSpan.Load(), uint64(k), "layer.load.score", start, sp.now())
		}
	}
	var onScore func(int64)
	if sp != nil {
		onScore = func(start int64) {
			sp.add(0, rig.cycleSpan.Load(), 1, "layer.errors.score", start, sp.now())
		}
	}
	f, err := fleet.New(fleet.Config{
		Tenants: specs,
		Layers:  fleetLayers(onBatch, onScore, rig.clock),
		NewState: func(spec fleet.TenantSpec) (fleet.TenantState, error) {
			st := &fleetState{capacity: capacity, idx: index[spec.ID]}
			states[st.idx] = st
			return st, nil
		},
		Apply:         rig.apply,
		Engine:        fleetEngine(),
		Shards:        pfmdShards,
		QueueCapacity: pfmdQueue,
		Overflow:      runtime.Block,
		Workers:       pfmdWorkers,
		Clock:         func() float64 { return math.Float64frombits(rig.simNow.Load()) },
		Tracer:        newPfmdTracer(),
		Ledger:        led,
		JournalLayers: true,
	})
	if err != nil {
		return 0, err
	}
	if err := f.Start(ctx); err != nil {
		return 0, err
	}
	ls, err := fleet.Listen("127.0.0.1:0")
	if err != nil {
		_ = f.Stop(ctx)
		return 0, err
	}
	rig.f, rig.led, rig.ls, rig.states = f, led, ls, states
	return time.Since(t0).Seconds(), nil
}

// position maps tenant t's k-th record in table (tenantPos or tenantAll)
// to its connection and position, or -1 past the encoded laps.
func (rig *fleetRig) position(table [][]int32, t int32, k int64) (ci, p int) {
	pos := table[t]
	ci = connOf(t)
	if len(pos) == 0 {
		return ci, -1
	}
	p = int(k/int64(len(pos)))*len(rig.conns[ci].lapRecs) + int(pos[k%int64(len(pos))])
	if p >= rig.conns[ci].total {
		return ci, -1
	}
	return ci, p
}

func (rig *fleetRig) sampled(p int) bool { return rig.sp != nil && p%rig.p.Sample == 0 }

// apply is the fleet's Apply callback: pfmd's tenant apply, stamped with
// the record it applies (the tenant's k-th applied event).
func (rig *fleetRig) apply(st fleet.TenantState, ev fleet.Event) error {
	s := st.(*fleetState)
	ci, p := rig.position(rig.tenantPos, s.idx, s.applied)
	s.applied++
	if p >= 0 && rig.sampled(p) {
		sp := rig.sp
		t0 := sp.now()
		err := s.apply(ev)
		t1 := sp.now()
		j := p / rig.p.Sample
		trace := uint64(ci)<<40 | uint64(p)
		sp.add(0, rig.ingestSp[ci][j], trace, "fleet.queue_wait", queuedAt(&rig.ingestEnd[ci][j], t0), t0)
		sp.add(0, rig.ingestSp[ci][j], trace, "fleet.apply", t0, t1)
		rig.applyAt[ci][p/latencySample] = uint32(rig.clock() / stampUnit)
		return err
	}
	err := s.apply(ev)
	if p >= 0 && p%latencySample == 0 {
		rig.applyAt[ci][p/latencySample] = uint32(rig.clock() / stampUnit)
	}
	return err
}

// appliedNs returns when sampled position p applied (0 if it never did).
func (rig *fleetRig) appliedNs(ci, p int) int64 {
	return int64(rig.applyAt[ci][p/latencySample]) * stampUnit
}

// fleetResult is one measured fleet run.
type fleetResult struct {
	SetupS      []float64
	Sent        int64 // records written to the sockets
	SentEvents  int64
	SentFails   int64
	Applied     int64 // events applied
	WindowS     float64
	CPUS        float64
	Apply       latencySummary // ms, over the binned window
	Decide      latencySummary // ms
	GenLag      latencySummary // ms, open loop
	Bins        binStats
	Mem         memDelta
	RanOut      bool // the closed-loop sender ran out of pre-encoded laps
	Cycles      int
	Counters    fleetCounters
	Bad         []string
	QueueDepths []float64 // traced
	HeapMB      float64
	ApplyLadder []float64       // ms at p90, p95, p98, p99, p99.5, p99.9 over the binned window
	Unapplied   int64           // sampled event records that never applied
	cpuAt       []time.Duration // process CPU at each second of the window
	appliedAt   []int64         // the fleet's applied counter at each second
	drainEnd    int64           // clock when the last sent record had applied
}

// fleetCounters are the program's own counters the checks read.
type fleetCounters struct {
	Pumped, Ingested, Applied, Dropped, ApplyErrors, Unknown, DecodeErrors int64
	FailuresRecorded, LedgerFailures, LedgerPredictions                    int64
	Warnings, Actions                                                      int64
}

// runFleet sets the fleet up setups times (reporting each set-up time),
// keeps the last one and drives it with the pre-encoded connections.
//
// With measureHeap the live heap is read at the end, after the fleet has
// stopped and the benchmark's own buffers are dropped: in is emptied.
func runFleet(ctx context.Context, p fleetParams, in *fleetInputs, setups int, sp *spanRecorder, measureHeap bool) (*fleetResult, error) {
	if sp != nil && p.Sample%latencySample != 0 {
		return nil, fmt.Errorf("trace sample %d is not a multiple of %d", p.Sample, latencySample)
	}
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	if sp != nil {
		sp.base = base // spans and stamps share one clock
	}
	res := &fleetResult{}
	var rig *fleetRig
	for i := 0; i < setups; i++ {
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one does not land in its time.
		stdruntime.GC()
		r := &fleetRig{p: p, tr: in.tr, conns: in.conns, clock: clock, sp: sp}
		s, err := setupFleet(ctx, r)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, s)
		if i < setups-1 {
			_ = r.ls.Close()
			if err := r.f.Stop(ctx); err != nil {
				return nil, err
			}
			continue
		}
		rig = r
	}
	rig.index()
	for c, conn := range in.conns {
		conn.sent, conn.ranOut, conn.chunkStart, conn.chunkFirst, conn.lags = 0, 0, nil, nil, nil
		rig.applyAt[c] = make([]uint32, conn.total/latencySample+1)
		if sp != nil {
			rig.ingestEnd[c] = make([]atomic.Int64, conn.total/p.Sample+1)
			rig.ingestSp[c] = make([]uint64, conn.total/p.Sample+1)
		}
	}
	err := rig.drive(ctx, res)
	_ = rig.ls.Close()
	if stopErr := rig.f.Stop(ctx); err == nil && stopErr != nil {
		err = fmt.Errorf("fleet stop: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	rig.collect(res)
	res.Bad = append(res.Bad, checkFleet(rig, res)...)
	if measureHeap {
		rig.tr, rig.conns, rig.applyAt, rig.tenantPos, rig.tenantAll, rig.cycles = nil, [2]*wireConn{}, [2][]uint32{}, nil, nil, nil
		in.free()
		res.HeapMB = liveHeapMB()
		stdruntime.KeepAlive(rig)
	}
	return res, nil
}

// index builds the per-tenant position tables.
func (rig *fleetRig) index() {
	n := rig.p.Tenants
	rig.tenantPos = make([][]int32, n)
	rig.tenantAll = make([][]int32, n)
	for _, c := range rig.conns {
		for k, ri := range c.lapRecs {
			m := rig.tr.meta[ri]
			rig.tenantAll[m.tenant] = append(rig.tenantAll[m.tenant], int32(k))
			if !m.failure {
				rig.tenantPos[m.tenant] = append(rig.tenantPos[m.tenant], int32(k))
			}
		}
	}
}

// drive runs the measured window: cycle loop, pump, two senders; then
// drains, runs a last cycle and stops the clock. Every goroutine it
// starts has ended when it returns.
func (rig *fleetRig) drive(ctx context.Context, res *fleetResult) error {
	f, sp := rig.f, rig.sp
	cs := &clockSource{src: rig.ls, simNow: &rig.simNow}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer wg.Wait()
	defer halt()

	cycle := func() {
		rig.cycleBegin.Store(0)
		var id uint64
		if sp != nil {
			id = sp.newID()
			rig.cycleSpan.Store(id)
		}
		t0 := rig.clock()
		f.EvaluateCycle()
		t1 := rig.clock()
		begin := rig.cycleBegin.Load()
		if begin == 0 {
			begin = t0
		}
		rig.cycles = append(rig.cycles, [2]int64{begin, t1})
		if sp != nil {
			sp.add(0, id, 0, "fleet.cycle_lock_wait", t0, begin)
			sp.add(id, 0, 0, "fleet.cycle", t0, t1)
		}
	}
	// Cycles on pfmd's cadence.
	cyclesDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(cyclesDone)
		t := time.NewTicker(pfmdEvalEveryMs * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cycle()
			}
		}
	}()
	// Queue depth, sampled in traced runs.
	if sp != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					res.QueueDepths = append(res.QueueDepths, float64(f.QueueDepth()))
				}
			}
		}()
	}
	// The pump: pfmd's fleet.Pump over the clock source, or the same loop
	// with spans in a traced run.
	pumpDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if sp == nil {
			_, err := fleet.Pump(ctx, f, cs)
			pumpDone <- err
			return
		}
		pumpDone <- rig.tracedPump(ctx, cs)
	}()

	var dialed [2]net.Conn
	for c := range dialed {
		conn, err := net.Dial("tcp", rig.ls.Addr())
		if err != nil {
			for _, d := range dialed[:c] {
				d.Close()
			}
			_ = rig.ls.Close()
			return err
		}
		dialed[c] = conn
	}
	mem0 := readMem()
	cpu0 := cpuTime()
	rig.startNs = rig.clock() + int64(5*time.Millisecond)
	// Process CPU and applied events at each whole second of the window,
	// for the per-second rates and costs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			wait := time.Duration(rig.startNs + int64(k)*int64(time.Second) - rig.clock())
			select {
			case <-stop:
				return
			case <-time.After(wait):
				res.cpuAt = append(res.cpuAt, cpuTime())
				res.appliedAt = append(res.appliedAt, f.Metrics().Applied.Value())
			}
		}
	}()
	var senders sync.WaitGroup
	sendErr := make([]error, 2)
	for c := range dialed {
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			if rig.p.Open {
				sendErr[c] = rig.sendOpen(dialed[c], rig.conns[c])
			} else {
				sendErr[c] = rig.sendClosed(dialed[c], rig.conns[c])
			}
			if err := dialed[c].Close(); sendErr[c] == nil {
				sendErr[c] = err
			}
		}(c)
	}
	senders.Wait()
	if err := errors.Join(sendErr...); err != nil {
		_ = rig.ls.Close()
		return fmt.Errorf("sender: %w", err)
	}
	var sent int64
	for _, c := range rig.conns {
		sent += int64(c.sent)
	}
	// Every sent record reaches the pump (or none arrives for two seconds:
	// a record was lost); then the listener closes so the pump returns,
	// and the barrier waits for the last apply.
	for seen, idle := cs.n.Load(), time.Now(); seen < sent && time.Since(idle) < 2*time.Second; {
		time.Sleep(200 * time.Microsecond)
		if n := cs.n.Load(); n != seen {
			seen, idle = n, time.Now()
		}
	}
	_ = rig.ls.Close()
	if err := <-pumpDone; err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("pump: %w", err)
	}
	if err := f.Barrier(ctx); err != nil {
		return err
	}
	res.drainEnd = rig.clock()
	halt()
	<-cyclesDone
	cycle() // decides everything applied since the last tick
	res.CPUS = (cpuTime() - cpu0).Seconds()
	res.Mem = readMem().sub(mem0)
	res.Counters.Pumped = cs.n.Load()
	return nil
}

// tracedPump is fleet.Pump (internal/fleet/source.go:35-60) with spans
// around ListenSource.Next and Fleet.Ingest / RecordFailure.
func (rig *fleetRig) tracedPump(ctx context.Context, src fleet.Source) error {
	f, sp := rig.f, rig.sp
	index := make(map[string]int32, rig.p.Tenants)
	for i := range rig.tenantAll {
		index[scp.TenantID(i)] = int32(i)
	}
	seen := make([]int64, rig.p.Tenants)
	for {
		t0 := sp.now()
		rec, err := src.Next()
		t1 := sp.now()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		ci, p := 0, -1
		if ti, ok := index[rec.Event.Tenant]; ok {
			ci, p = rig.position(rig.tenantAll, ti, seen[ti])
			seen[ti]++
		}
		traced := p >= 0 && rig.sampled(p)
		var id uint64
		if traced {
			id = sp.newID()
			rig.ingestSp[ci][p/rig.p.Sample] = id
		}
		if rec.Failure {
			err = f.RecordFailure(rec.Event.Tenant, rec.Event.Time)
		} else {
			err = f.Ingest(ctx, rec.Event)
		}
		t2 := sp.now()
		if traced {
			trace := uint64(ci)<<40 | uint64(p)
			rig.ingestEnd[ci][p/rig.p.Sample].Store(t2)
			sp.add(0, id, trace, "fleet.listen_wait", t0, t1)
			sp.add(id, 0, trace, "fleet.ingest", t1, t2)
		}
		if err != nil && !errors.Is(err, fleet.ErrUnknownTenant) {
			return err
		}
	}
}

// slotNs returns open-loop position p's schedule slot: global record g
// of lap l is due at start + (l*L + g)/rate.
func (rig *fleetRig) slotNs(c *wireConn, p int) int64 {
	lap, ri := c.lapIndex(p)
	g := int64(lap)*int64(len(rig.tr.meta)) + int64(ri)
	return rig.startNs + int64(float64(g)*1e9/rig.p.Rate)
}

// writeOf returns the index of the write that carried position p.
func writeOf(c *wireConn, p int) int {
	lo, hi := 0, len(c.chunkFirst)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.chunkFirst[mid] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0)
}

// dueNs returns when position p was due: its open-loop schedule slot, or
// the start of the closed-loop write that carried it.
func (rig *fleetRig) dueNs(c *wireConn, p int) int64 {
	if rig.p.Open {
		return rig.slotNs(c, p)
	}
	return c.chunkStart[writeOf(c, p)]
}

// maxWrite caps one write so lag samples stay frequent.
const maxWrite = 64 << 10

// sendTick is the open-loop sender's shortest sleep: records that fall
// due within it go out in one write, which keeps the generator's own
// syscall cost small next to the system's. The delay it adds counts in
// the latencies, which are measured from each record's due time.
const sendTick = 200 * time.Microsecond

// sendOpen writes each record when its schedule slot comes due.
func (rig *fleetRig) sendOpen(conn net.Conn, c *wireConn) error {
	endG := int64(rig.p.Rate * rig.p.Seconds)
	n := 0
	for n < c.total {
		lap, ri := c.lapIndex(n)
		if int64(lap)*int64(len(rig.tr.meta))+int64(ri) >= endG {
			break
		}
		n++
	}
	p := 0
	for p < n {
		now := rig.clock()
		slot := rig.slotNs(c, p)
		if slot > now {
			time.Sleep(max(time.Duration(slot-now), sendTick))
			continue
		}
		q := p + 1
		for q < n && rig.slotNs(c, q) <= now && c.ends[q]-uint32(c.startOf(p)) <= maxWrite {
			q++
		}
		c.lags = append(c.lags, float64(now-slot)/1e6)
		if _, err := conn.Write(c.buf[c.startOf(p):c.ends[q-1]]); err != nil {
			return err
		}
		p = q
		c.sent = p
	}
	return nil
}

// sendClosed writes as fast as the socket accepts until the run's time
// is up or the encoded laps run out.
func (rig *fleetRig) sendClosed(conn net.Conn, c *wireConn) error {
	deadline := rig.startNs + int64(rig.p.Seconds*1e9)
	for rig.clock() < rig.startNs {
		time.Sleep(100 * time.Microsecond)
	}
	p := 0
	for {
		now := rig.clock()
		if now >= deadline {
			return nil
		}
		if p == c.total {
			c.ranOut = now
			return nil
		}
		q := p + 1
		for q < c.total && int(c.ends[q])-c.startOf(p) <= maxWrite {
			q++
		}
		c.chunkStart = append(c.chunkStart, now)
		c.chunkFirst = append(c.chunkFirst, p)
		if _, err := conn.Write(c.buf[c.startOf(p):c.ends[q-1]]); err != nil {
			return err
		}
		p = q
		c.sent = p
	}
}
