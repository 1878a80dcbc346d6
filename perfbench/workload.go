package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// workload is one shared-session scene the benchmark drives. Every
// workload runs two workstations (a commander and an observer) against
// a server at vwserver's default 100 ms governor budget.
type workload struct {
	Name string
	Why  string

	// Relay puts a leaf and a mid relay between the workstations and
	// the origin (leaf -> mid -> origin).
	Relay bool
	// Live serves frames from the in-situ solver ring instead of a
	// memory-resident dataset.
	Live bool
	// Codecs are the frame codecs the commander and observer request.
	Codecs [2]uint8
	// Play runs looping playback at speed 1.
	Play bool
	// Rakes streamline rakes of Seeds seeds each, plus one streakline
	// rake of StreakSeeds seeds when StreakSeeds > 0.
	Rakes, Seeds int
	StreakSeeds  int
	// Tools enables the isosurface, cutting plane and vortex cores;
	// the commander then changes the iso level every frame instead of
	// moving a rake.
	Tools bool
	// SteerEvery makes the commander push a steering triple every N
	// frames (live workloads only; 0 = never).
	SteerEvery int
}

var workloads = []*workload{
	{
		Name:   "direct-play",
		Why:    "playback changes the timestep every round, so every rake re-integrates: integrate, encode, decode and render carry the latency; relays, tools and solver idle",
		Codecs: [2]uint8{wire.CodecV2, wire.CodecV2},
		Play:   true, Rakes: 4, Seeds: 32, StreakSeeds: 4,
	},
	{
		Name:   "relay-paused",
		Why:    "paused, so the rake memo serves 7 of 8 rakes: two relay hops, dlib dispatch and wire encode/decode (v2 commander, v1 observer) dominate",
		Relay:  true,
		Codecs: [2]uint8{wire.CodecV2, wire.CodecV1},
		Rakes:  8, Seeds: 4,
	},
	{
		Name:   "live-tools",
		Why:    "solver production runs inside the frame call and all three tools recompute every round: ring, solver, isosurf and field dominate, with steering writes",
		Live:   true,
		Codecs: [2]uint8{wire.CodecV2, wire.CodecV2},
		Play:   true, Rakes: 1, Seeds: 8, Tools: true, SteerEvery: 10,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Tool settings for the live-tools scene (vwload -tools defaults).
const (
	vortexQ   = 0.01
	planeAxis = 2
	planeFrac = 0.5
)

// scene is everything the seed decides: where the rakes start, which
// one the commander works, the path it drags it along, the iso levels
// it sets and the steering triples it pushes. The program under test
// receives only these generated inputs.
type scene struct {
	w      *workload
	rng    *rand.Rand
	rakes  []integrate.Rake // initial rakes, IDs assigned by the server in order
	target int              // index into rakes of the rake the commander drags
	home   vmath.Vec3       // the target rake's initial center
	center vmath.Vec3       // current commanded center of the target rake
	iso    float32          // current iso level
}

// Rakes lie along the cylinder's span, upstream of it, where
// streamlines cross the whole grid (x, y in [-12, 12], z in [0, 16]).
const (
	rakeX      = -5
	rakeHalfZ  = 5
	rakeCenter = 8
	jitter     = 0.2
)

func newScene(w *workload, seed uint64) *scene {
	s := &scene{w: w, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	n := w.Rakes
	for k := 0; k < n; k++ {
		// Rakes are spread across y in [-4, 4], each nudged by the seed.
		y := -4 + 8*(float32(k)+0.5)/float32(n) + s.jit()
		x := rakeX + s.jit()
		p0 := vmath.V3(x, y, rakeCenter-rakeHalfZ+s.jit())
		p1 := vmath.V3(x, y, rakeCenter+rakeHalfZ+s.jit())
		s.rakes = append(s.rakes, integrate.Rake{P0: p0, P1: p1, NumSeeds: w.Seeds, Tool: integrate.ToolStreamline})
	}
	if w.StreakSeeds > 0 {
		y := 1.5 + s.jit()
		s.rakes = append(s.rakes, integrate.Rake{
			P0: vmath.V3(rakeX-1, y, rakeCenter-3), P1: vmath.V3(rakeX-1, y, rakeCenter+3),
			NumSeeds: w.StreakSeeds, Tool: integrate.ToolStreakline,
		})
	}
	// The commander always drags the rake nearest the wake's center
	// line, so the seed moves the work only as far as placement jitter
	// and the drag path do.
	s.target = n / 2
	s.home = s.rakes[s.target].Center()
	s.center = s.home
	s.iso = isoLo + isoSpan/2
	return s
}

func (s *scene) jit() float32 { return jitter * (2*s.rng.Float32() - 1) }

// nextCenter advances the commander's drag path: a seeded walk with
// steps of 0.15 to 0.3 world units, reflected into a box of +-dragBox
// around the rake's home. Every step is long enough that a move the
// server drops is visible in the reply.
func (s *scene) nextCenter() vmath.Vec3 {
	step := 0.15 + 0.15*s.rng.Float32()
	a := 2 * math.Pi * s.rng.Float64()
	c, h := s.center, s.home
	c.X = reflect(c.X+step*float32(math.Cos(a)), h.X-dragBox, h.X+dragBox)
	c.Y = reflect(c.Y+step*float32(math.Sin(a)), h.Y-dragBox, h.Y+dragBox)
	c.Z = reflect(c.Z+0.1*(2*s.rng.Float32()-1), h.Z-0.2, h.Z+0.2)
	s.center = c
	return c
}

// dragBox bounds the drag path around the rake's home in x and y.
const dragBox = 0.6

// Iso levels are drawn from [isoLo, isoLo+isoSpan].
const (
	isoLo   = 0.8
	isoSpan = 0.1
)

// nextIso returns a new iso level at least 0.01 away from the previous
// one.
func (s *scene) nextIso() float32 {
	for {
		v := isoLo + isoSpan*s.rng.Float32()
		if d := v - s.iso; d > 0.01 || d < -0.01 {
			s.iso = v
			return v
		}
	}
}

// nextSteer returns a steering triple within 2-5% of the solver's
// construction-time parameters (U 1, Re 400, taper 0.5), so the flow,
// and with it the tools' work, stays comparable across seeds.
func (s *scene) nextSteer() vmath.Vec3 {
	return vmath.V3(0.98+0.04*s.rng.Float32(), 390+20*s.rng.Float32(), 0.49+0.02*s.rng.Float32())
}

func reflect(v, lo, hi float32) float32 {
	if v < lo {
		return lo + (lo - v)
	}
	if v > hi {
		return hi - (v - hi)
	}
	return v
}

// setupCommands builds the scene-building frame the origin receives
// before any workstation attaches.
func (s *scene) setupCommands() []wire.Command {
	var cmds []wire.Command
	for _, r := range s.rakes {
		cmds = append(cmds, wire.Command{
			Kind: wire.CmdAddRake, P0: r.P0, P1: r.P1,
			NumSeeds: uint32(r.NumSeeds), Tool: uint8(r.Tool),
		})
	}
	if s.w.Tools {
		cmds = append(cmds,
			wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: s.iso},
			wire.Command{Kind: wire.CmdPlaneMove, Flag: 1, Grab: planeAxis, Value: planeFrac},
			wire.Command{Kind: wire.CmdVortexToggle, Flag: 1, Value: vortexQ},
		)
	}
	if s.w.Play {
		cmds = append(cmds,
			wire.Command{Kind: wire.CmdSetLoop, Flag: 1},
			wire.Command{Kind: wire.CmdSetSpeed, Value: 1},
			wire.Command{Kind: wire.CmdSetPlaying, Flag: 1},
		)
	}
	return cmds
}

// expect is what one commander command must make visible: the target
// rake's endpoints, or the iso level.
type expect struct {
	rake   int32
	p0, p1 vmath.Vec3
	iso    float32
}

// commander generates the commander's per-frame commands from the
// scene and tracks what each should make visible.
type commander struct {
	s      *scene
	rakeID int32
	mirror integrate.Rake // client-side copy of the target rake
	frame  int
	regrab bool
	steers int // steering pushes sent
}

func newCommander(s *scene, rakeID int32) *commander {
	return &commander{s: s, rakeID: rakeID, mirror: s.rakes[s.target]}
}

// grabCommands are sent once, with the commander's first frame: the
// rake grab (at its center), or the tool and steering locks.
func (c *commander) grabCommands() []wire.Command {
	if c.s.w.Tools {
		cmds := []wire.Command{{Kind: wire.CmdIsoGrab}, {Kind: wire.CmdPlaneGrab}}
		if c.s.w.SteerEvery > 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdSteerGrab})
		}
		return cmds
	}
	return []wire.Command{{Kind: wire.CmdGrab, Rake: c.rakeID, Grab: uint8(integrate.GrabCenter)}}
}

// next returns the commands for the commander's next frame and what
// they must make visible. ignore makes the server drop the frame's
// command on purpose (a grab with GrabNone, or an out-of-envelope iso
// level), so the benchmark's checks must flag it.
func (c *commander) next(ignore bool) ([]wire.Command, expect) {
	f := c.frame
	c.frame++
	var cmds []wire.Command
	if f == 0 {
		cmds = c.grabCommands()
	}
	if c.s.w.Tools {
		level := c.s.nextIso()
		sent := level
		if ignore {
			sent = -level
		}
		cmds = append(cmds, wire.Command{Kind: wire.CmdIsoSet, Flag: 1, Value: sent})
		if c.s.w.SteerEvery > 0 && f%c.s.w.SteerEvery == 0 {
			cmds = append(cmds, wire.Command{Kind: wire.CmdSteer, P0: c.s.nextSteer()})
			c.steers++
		}
		return cmds, expect{iso: level}
	}
	if c.regrab {
		cmds = append(cmds, wire.Command{Kind: wire.CmdGrab, Rake: c.rakeID, Grab: uint8(integrate.GrabCenter)})
		c.regrab = false
	}
	if ignore {
		cmds = append(cmds,
			wire.Command{Kind: wire.CmdRelease, Rake: c.rakeID},
			wire.Command{Kind: wire.CmdGrab, Rake: c.rakeID, Grab: uint8(integrate.GrabNone)})
		c.regrab = true
	}
	pos := c.s.nextCenter()
	cmds = append(cmds, wire.Command{Kind: wire.CmdMove, Rake: c.rakeID, Pos: pos})
	_ = c.mirror.MoveGrab(integrate.GrabCenter, pos)
	return cmds, expect{rake: c.rakeID, p0: c.mirror.P0, p1: c.mirror.P1}
}

// endpointTol is how far a replied rake endpoint may sit from the
// commanded one (float32 round-off; the drag steps are >= 0.15).
const endpointTol = 1e-3

// shows reports whether a reply displays what e commanded.
func (e expect) shows(r wire.FrameReply) bool {
	if e.rake == 0 {
		return r.Tools != nil && r.Tools.Iso.Enabled && r.Tools.Iso.Value == e.iso && r.Tools.TotalPoints() > 0
	}
	for _, rk := range r.Rakes {
		if rk.ID == e.rake {
			return near(rk.P0, e.p0) && near(rk.P1, e.p1) && hasGeometry(r, e.rake)
		}
	}
	return false
}

func hasGeometry(r wire.FrameReply, id int32) bool {
	for _, g := range r.Geometry {
		if g.Rake == id {
			return g.NumPoints() > 0
		}
	}
	return false
}

func near(a, b vmath.Vec3) bool { return a.Dist(b) <= endpointTol }
