package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

// vwserver's default per-frame governor budget.
const defaultBudget = 100 * time.Millisecond

// Live-tools dataset: vwload -live defaults on a 24x32x8 sampling grid.
// The horizon is far beyond any run so looping playback never wraps
// behind the ring's window.
var liveSpec = datasets.Spec{NI: 24, NJ: 32, NK: 8, NumSteps: 1 << 20, DT: 0.6}

// chain holds one workstation's metered connections, hop by hop from
// the workstation to the origin. Entries for hops a topology lacks are
// nil; every entry is nil in an untraced rig.
type chain struct {
	ws        *meter // workstation side of the workstation link
	leafSrv   *meter // leaf relay's side of the workstation link
	leafUp    *meter // leaf relay's upstream leg
	midSrv    *meter // mid relay's side of that leg
	midUp     *meter // mid relay's upstream leg
	originSrv *meter // origin's side of whichever link reaches it
}

// rig is one built topology: origin, optional relays, two
// workstations. Index 0 is the commander, 1 the observer.
type rig struct {
	w      *workload
	traced bool

	srv  *server.Server
	live *datasets.Live
	leaf *relay.Relay
	mid  *relay.Relay

	ws    [2]*client.Workstation
	dl    [2]*dlib.Client
	link  [2]*netsim.Conn // workstation ends of the workstation links
	chain [2]chain

	mu sync.Mutex // guards the dial-order lists below
	// leafLegs / midLegs collect relay upstream legs in dial order:
	// the commander attaches first, so its legs come first.
	leafLegs [][2]*meter
	midLegs  [][2]*meter

	rakeIDs []int32
	conns   []net.Conn
}

// buildRig builds the topology for w: dataset, origin, relays, scene,
// and both workstation handshakes.
func buildRig(w *workload, sc *scene, traced bool) (*rig, error) {
	r := &rig{w: w, traced: traced}
	var st store.Store
	cfg := server.Config{Budget: defaultBudget}
	if w.Live {
		lv, err := datasets.NewLive(liveSpec, datasets.LiveOptions{
			Solver: datasets.SolverOptions{Resolution: 16, SpinupSteps: 10},
			Window: 16,
		})
		if err != nil {
			return nil, fmt.Errorf("live dataset: %w", err)
		}
		r.live = lv
		st = lv.Ring()
		def := datasets.DefaultSteer()
		cfg.Steer = env.SteerParams{InflowU: def.InflowU, Reynolds: def.Reynolds, Taper: def.Taper}
	} else {
		u, err := bench.BuildDataset(bench.DatasetSpec{NI: 24, NJ: 32, NK: 10, NumSteps: 10, DT: 0.6})
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		st = store.NewMemory(u)
	}
	cfg.Store = st
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	if r.live != nil {
		r.live.SetSteerSource(core.LiveSteerSource(srv.Env()))
	}

	if err := r.setupScene(sc); err != nil {
		r.close()
		return nil, err
	}
	if w.Relay {
		// leaf -> mid -> origin; each relay dials one upstream leg per
		// downstream session.
		r.mid, err = relay.New(relay.Config{Upstreams: []dlib.DialFunc{r.dialer(r.srv.Dlib(), &r.midLegs)}})
		if err == nil {
			r.leaf, err = relay.New(relay.Config{Upstreams: []dlib.DialFunc{r.dialer(r.mid.Dlib(), &r.leafLegs)}})
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		if err := r.attach(i); err != nil {
			r.close()
			return nil, fmt.Errorf("workstation %d: %w", i, err)
		}
	}
	if traced {
		r.wireChains()
	}
	return r, nil
}

// pipe returns a connected in-memory link and remembers both ends for
// teardown. The link is unshaped: netsim's pacing runs after the peer
// already holds the bytes, so shaped latency would be misattributed.
func (r *rig) pipe() (srvEnd, cliEnd *netsim.Conn) {
	srvEnd, cliEnd = netsim.Pipe(netsim.Link{})
	r.mu.Lock()
	r.conns = append(r.conns, srvEnd, cliEnd)
	r.mu.Unlock()
	return srvEnd, cliEnd
}

// serve hands the server end of a link to d, metered when traced.
func (r *rig) serve(d *dlib.Server, c net.Conn) *meter {
	if !r.traced {
		go d.ServeConn(c)
		return nil
	}
	m := newMeter(c, serverEnd)
	go d.ServeConn(m)
	return m
}

// dialer returns a relay upstream DialFunc reaching d, recording each
// leg's metered ends in legs.
func (r *rig) dialer(d *dlib.Server, legs *[][2]*meter) dlib.DialFunc {
	return func() (net.Conn, error) {
		s, c := r.pipe()
		srvM := r.serve(d, s)
		if !r.traced {
			return c, nil
		}
		cliM := newMeter(c, clientEnd)
		r.mu.Lock()
		*legs = append(*legs, [2]*meter{cliM, srvM})
		r.mu.Unlock()
		return cliM, nil
	}
}

// setupScene builds the shared scene over a throwaway origin
// connection and learns the rake ids the server assigned.
func (r *rig) setupScene(sc *scene) error {
	s, c := r.pipe()
	go r.srv.Dlib().ServeConn(s)
	cl := dlib.NewClient(c)
	defer cl.Close()
	out, err := cl.Call(wire.ProcFrame, wire.EncodeClientUpdate(wire.ClientUpdate{
		Head: vmath.Identity(), Commands: sc.setupCommands(),
	}))
	if err != nil {
		return fmt.Errorf("scene setup: %w", err)
	}
	reply, err := wire.DecodeFrameReply(out)
	if err != nil {
		return fmt.Errorf("scene setup reply: %w", err)
	}
	if len(reply.Rakes) != len(sc.rakes) {
		return fmt.Errorf("scene setup: server holds %d rakes, want %d", len(reply.Rakes), len(sc.rakes))
	}
	for _, rk := range reply.Rakes {
		r.rakeIDs = append(r.rakeIDs, rk.ID)
	}
	return nil
}

// attach connects workstation i (to the leaf relay or the origin) and
// runs its handshake.
func (r *rig) attach(i int) error {
	s, c := r.pipe()
	r.link[i] = c
	d := r.srv.Dlib()
	if r.leaf != nil {
		d = r.leaf.Dlib()
	}
	srvM := r.serve(d, s)
	var conn net.Conn = c
	if r.traced {
		m := newMeter(c, clientEnd)
		r.chain[i].ws = m
		conn = m
		if r.leaf != nil {
			r.chain[i].leafSrv = srvM
		} else {
			r.chain[i].originSrv = srvM
		}
	}
	r.dl[i] = dlib.NewClient(conn)
	ws, err := client.New(r.dl[i], client.Config{Codec: r.w.Codecs[i]})
	if err != nil {
		return err
	}
	if ws.Codec() != r.w.Codecs[i] {
		return fmt.Errorf("negotiated codec v%d, want v%d", ws.Codec(), r.w.Codecs[i])
	}
	r.ws[i] = ws
	return nil
}

// wireChains assigns relay legs to workstations in dial order.
func (r *rig) wireChains() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < 2 && i < len(r.leafLegs); i++ {
		r.chain[i].leafUp, r.chain[i].midSrv = r.leafLegs[i][0], r.leafLegs[i][1]
	}
	for i := 0; i < 2 && i < len(r.midLegs); i++ {
		r.chain[i].midUp, r.chain[i].originSrv = r.midLegs[i][0], r.midLegs[i][1]
	}
}

// close tears the topology down: workstation clients, relays, origin,
// and every link end.
func (r *rig) close() {
	for _, c := range r.dl {
		if c != nil {
			c.Close()
		}
	}
	for _, rl := range []*relay.Relay{r.leaf, r.mid} {
		if rl != nil {
			rl.Dlib().Close()
			rl.Close()
		}
	}
	if r.srv != nil {
		r.srv.Dlib().Close()
	}
	r.mu.Lock()
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// pose is a workstation's fixed head-tracked view of the wake with an
// open hand parked off to the side (the benchmark drives rakes by
// command, not by gesture). The observer stands a little to the left.
func pose(i int) vr.Pose {
	eye := vmath.V3(-6-2*float32(i), 14, 24)
	view := vmath.LookAt(eye, vmath.V3(4, 0, 8), vmath.V3(0, 1, 0))
	head, _ := view.Inverted()
	return vr.Pose{Head: head, Hand: vmath.V3(10, 10, 20), Gesture: vr.GestureOpen}
}
