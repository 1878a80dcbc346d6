package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dlib"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// period is the paper's 10 fps frame period; the observer runs half a
// period behind the commander.
const period = 100 * time.Millisecond

// warmupFrames run unpaced on each workstation at the end of set-up, so
// the governor calibrates and memos fill before anything is timed.
const warmupFrames = 8

type phaseKind uint8

const (
	warmup  phaseKind = iota
	paced             // closed loop at 10 fps, NetStep then RenderFrame
	unpaced           // NetStep loops with no render: pipeline capacity
)

// frameRec is one workstation frame.
type frameRec struct {
	ws  int
	cmd int // commander command index (-1 on the observer)

	due, start, netEnd, renStart, renEnd time.Time
	failed                               bool
	failure                              string
	// probe is the reference kernel's time right after a paced render.
	probe time.Duration

	tr *frameTrace // nil in untraced runs
}

// frameTrace is what the traced run saw beneath one NetStep: the
// metered spans of each hop, and the origin's handler and round-stage
// times taken from ProcStats and Recorder deltas around the call.
type frameTrace struct {
	ws, leafSrv, leafUp, midSrv, midUp, originSrv callSpan
	// handler is the origin's frame-procedure service time; handlerOK
	// is false when another call landed in the same delta window.
	handler             time.Duration
	handlerOK           bool
	load, integ, encode time.Duration
}

// cmdLog is the commander's command history, shared with the observer
// so it can check that it shows every command completed before its
// own frame began.
type cmdLog struct {
	mu        sync.Mutex
	issued    []expect
	completed int
}

func (l *cmdLog) issue(e expect) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.issued = append(l.issued, e)
	return len(l.issued) - 1
}

func (l *cmdLog) complete(idx int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.completed = idx + 1
}

func (l *cmdLog) done() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.completed
}

// candidates returns the commands a frame that began after done
// commands had completed may show: the newest completed one or any
// issued since.
func (l *cmdLog) candidates(done int) []expect {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]expect(nil), l.issued[done-1:]...)
}

// session drives one rig: both workstation loops, the checks, and the
// counters each phase reads.
type session struct {
	r     *rig
	cmder *commander
	log   cmdLog
	// ignoreAt is the commander command index whose command is sent so
	// the server drops it (-1 = none); the checks must flag it.
	ignoreAt int
	proc     string // the origin's frame procedure

	// ownChecks and observerChecks count the reply checks run, so the
	// tests can tell that every check fired.
	ownChecks, observerChecks atomic.Int64

	heap heapSampler
}

func newSession(r *rig, sc *scene, ignoreAt int) *session {
	s := &session{r: r, ignoreAt: ignoreAt, proc: wire.ProcFrame}
	if r.leaf != nil {
		s.proc = wire.ProcFrameRelay
	}
	s.cmder = newCommander(sc, r.rakeIDs[sc.target])
	return s
}

// phaseLead is how far ahead of its first frame a phase is scheduled,
// so both workstation goroutines are running by then.
const phaseLead = 2 * time.Millisecond

// runPhase runs both workstations from start for dur (or, for warmup,
// a fixed frame count) and returns their frames.
func (s *session) runPhase(ph phaseKind, start time.Time, dur time.Duration) []frameRec {
	var out [2][]frameRec
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.loop(i, ph, start, end)
		}(i)
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

func (s *session) loop(i int, ph phaseKind, start, end time.Time) []frameRec {
	var recs []frameRec
	ws := s.r.ws[i]
	p := pose(i)
	for f := 0; ; f++ {
		var due time.Time
		switch ph {
		case warmup:
			if f == warmupFrames {
				return recs
			}
			due = time.Now()
		case paced:
			due = start.Add(time.Duration(f)*period + time.Duration(i)*period/2)
			if !due.Before(end) {
				return recs
			}
			waitUntil(due)
		case unpaced:
			if f == 0 {
				waitUntil(start)
			}
			due = time.Now()
			if !due.Before(end) {
				return recs
			}
		}
		rec := frameRec{ws: i, cmd: -1, due: due}
		done := 0
		var want expect
		if i == 0 {
			var cmds []wire.Command
			cmds, want = s.cmder.next(s.cmder.frame == s.ignoreAt)
			for _, c := range cmds {
				ws.Queue(c)
			}
			rec.cmd = s.log.issue(want)
		} else {
			done = s.log.done()
		}

		var pre traceMark
		if s.r.traced {
			pre = s.mark(i)
		}
		rec.start = time.Now()
		err := ws.NetStep(p)
		rec.netEnd = time.Now()
		if s.r.traced {
			rec.tr = s.collect(i, pre)
		}
		if i == 0 {
			s.log.complete(rec.cmd)
		}
		reply, _ := ws.Latest()
		switch {
		case err != nil:
			rec.fail(fmt.Sprintf("netstep: %v", err))
		case i == 0:
			s.ownChecks.Add(1)
			if !want.shows(reply) {
				rec.fail(fmt.Sprintf("own reply does not show command %d", rec.cmd))
			}
		case done > 0:
			s.observerChecks.Add(1)
			if !showsAny(s.log.candidates(done), reply) {
				rec.fail(fmt.Sprintf("observer does not show command %d or later", done-1))
			}
		}
		if ph != unpaced {
			rec.renStart = time.Now()
			if err := ws.RenderFrame(p.Head); err != nil {
				rec.fail(fmt.Sprintf("render: %v", err))
			}
			rec.renEnd = time.Now()
			if ph == paced {
				rec.probe = probe(i)
			}
		}
		recs = append(recs, rec)
	}
}

// waitUntil sleeps to just short of t, then yields until t passes, so
// timer slack does not land in the latency measured from t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinSlack is how long before a frame's due time the loop stops
// sleeping and starts yielding.
const spinSlack = time.Millisecond

func (r *frameRec) fail(why string) {
	if !r.failed {
		r.failed, r.failure = true, why
	}
}

func showsAny(es []expect, reply wire.FrameReply) bool {
	for _, e := range es {
		if e.shows(reply) {
			return true
		}
	}
	return false
}

// traceMark is the state snapshotted before a traced NetStep.
type traceMark struct {
	counts [6]int
	proc   dlib.ProcStat
	rec    obs.Snapshot
}

func (c *chain) meters() [6]*meter {
	return [6]*meter{c.ws, c.leafSrv, c.leafUp, c.midSrv, c.midUp, c.originSrv}
}

func (s *session) mark(i int) traceMark {
	var m traceMark
	for k, mt := range s.r.chain[i].meters() {
		if mt != nil {
			m.counts[k] = mt.count()
		}
	}
	m.proc = s.r.srv.Dlib().ProcStats()[s.proc]
	m.rec = s.r.srv.Recorder().Snapshot()
	return m
}

func (s *session) collect(i int, pre traceMark) *frameTrace {
	t := &frameTrace{}
	dst := [6]*callSpan{&t.ws, &t.leafSrv, &t.leafUp, &t.midSrv, &t.midUp, &t.originSrv}
	for k, mt := range s.r.chain[i].meters() {
		if mt == nil {
			continue
		}
		if spans := mt.since(pre.counts[k]); len(spans) > 0 {
			*dst[k] = spans[len(spans)-1]
		}
	}
	proc := s.r.srv.Dlib().ProcStats()[s.proc]
	rec := s.r.srv.Recorder().Snapshot()
	if proc.Calls-pre.proc.Calls == 1 && rec.Frames-pre.rec.Frames <= 1 {
		t.handlerOK = true
		t.handler = proc.Total - pre.proc.Total
		t.load = rec.LoadTime - pre.rec.LoadTime
		t.integ = rec.IntegrateTime - pre.rec.IntegrateTime
		t.encode = rec.EncodeTime - pre.rec.EncodeTime
	}
	return t
}

// counters is every public counter the benchmark takes deltas of.
type counters struct {
	at      time.Time
	srv     server.Stats
	rec     obs.Snapshot
	procs   map[string]dlib.ProcStat
	leaf    relay.Stats
	mid     relay.Stats
	live    store.RingStats
	bytes   [2][2]int64 // per workstation: read, written
	wsStats [2]struct{ frames, rounds int64 }
	rt      [len(rtNames)]metrics.Sample
	cpu     time.Duration // process user+system CPU time
}

var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func (r *rig) counters() counters {
	c := counters{at: time.Now(), srv: r.srv.Stats(), rec: r.srv.Recorder().Snapshot(), procs: r.srv.Dlib().ProcStats()}
	if r.leaf != nil {
		c.leaf, c.mid = r.leaf.Stats(), r.mid.Stats()
	}
	if ls, ok := r.srv.LiveStats(); ok {
		c.live = ls
	}
	for i := 0; i < 2; i++ {
		c.bytes[i][0], c.bytes[i][1] = r.link[i].Stats()
		st := r.ws[i].Stats()
		c.wsStats[i].frames, c.wsStats[i].rounds = st.NetFrames, st.Rounds
	}
	for k, n := range rtNames {
		c.rt[k].Name = n
	}
	metrics.Read(c.rt[:])
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

func (c counters) rtu(k int) float64 {
	if c.rt[k].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(c.rt[k].Value.Uint64())
}

// heapSampler tracks the highest heap-in-use (live and dead objects
// plus unused span space) seen while it runs.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func (h *heapSampler) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64() + s[1].Value.Uint64()
			h.mu.Lock()
			h.peak = max(h.peak, v)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
