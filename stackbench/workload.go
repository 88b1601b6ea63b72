package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// workload is one traffic mix. Sizes are counts of operations, never
// durations: a run's state at the first timed op and at the last one is
// a function of the arguments alone, not of how fast the box was.
type workload struct {
	name string
	// opsPerSecond is the reference throughput on a 2-CPU box. With
	// --seconds it fixes the timed op count; it is not a target rate.
	opsPerSecond int
	// devices is the fleet size, split over the connections.
	devices int
	// bound: the fleet is bound during set-up (heartbeat workloads);
	// binding_churn leaves it unbound and binds inside its cycles.
	bound bool
	// idemWarm keyed heartbeats per device fill each shadow's
	// idempotency log to its 256-entry cap before timing.
	idemWarm int
	// bareWarm unkeyed heartbeats per device settle the pending
	// liveness notes before timing.
	bareWarm int
	// churnWarm bind/heartbeat/unbind cycles per device before timing.
	churnWarm int
	// timed builds one connection's timed ops.
	timed func(g *gen, n int) []op
}

var workloads = []*workload{
	{
		name: "keyed_heartbeat", opsPerSecond: 9000, devices: 64, bound: true,
		idemWarm: 256,
		timed:    func(g *gen, n int) []op { return g.heartbeats(n, true, true) },
	},
	{
		name: "bare_heartbeat", opsPerSecond: 45000, devices: 4096, bound: true,
		bareWarm: 2,
		timed:    func(g *gen, n int) []op { return g.heartbeats(n, false, true) },
	},
	{
		name: "binding_churn", opsPerSecond: 9000, devices: 64,
		idemWarm: 256, churnWarm: 2,
		timed: func(g *gen, n int) []op { return g.cycles(n / 3) },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opKind is a request type the benchmark sends.
type opKind uint8

const (
	opRegister opKind = iota // StatusRegister (provisioning)
	opStatus                 // StatusHeartbeat, keyed when key != ""
	opBind                   // device-initiated ACL bind: UserID and password
	opUnbind                 // Unbind : DevId
)

var kindNames = [...]string{opRegister: "register", opStatus: "status", opBind: "bind", opUnbind: "unbind"}

// op is one generated request. The stack receives only what is built
// from it: the device ID at index dev, the idempotency key, and the
// device's account.
type op struct {
	kind opKind
	// bound is the binding state a heartbeat must report.
	bound bool
	dev   int32
	key   string
}

// plan is one round's request stream, per connection and phase.
type plan struct {
	setup [][]op // provisioning, binding and warm-up
	timed [][]op
}

// gen generates one connection's ops over the devices it owns. Device
// order comes from the seeded source; keys are unique per connection,
// hence per device.
type gen struct {
	rng  *rand.Rand
	own  []int32
	keys int64
}

// makePlan generates the whole stream of one round. The same seed,
// round and sizes always give the same plan.
func makePlan(w *workload, timedOps int, seed int64, round int) plan {
	p := plan{setup: make([][]op, conns), timed: make([][]op, conns)}
	for c := 0; c < conns; c++ {
		g := &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(round)*1009 + int64(c)))}
		for d := c; d < w.devices; d += conns {
			g.own = append(g.own, int32(d))
		}
		var setup []op
		for _, d := range g.own {
			setup = append(setup, op{kind: opRegister, dev: d})
		}
		if w.bound {
			for _, d := range g.own {
				setup = append(setup, op{kind: opBind, dev: d})
			}
		}
		n := len(g.own)
		setup = append(setup, g.heartbeats(w.idemWarm*n, true, w.bound)...)
		setup = append(setup, g.heartbeats(w.bareWarm*n, false, w.bound)...)
		setup = append(setup, g.cycles(w.churnWarm*n)...)
		p.setup[c] = setup
		p.timed[c] = w.timed(g, timedOps/conns)
	}
	return p
}

// perm returns the owned devices in a fresh seeded order.
func (g *gen) perm() []int32 {
	out := make([]int32, len(g.own))
	for i, j := range g.rng.Perm(len(g.own)) {
		out[i] = g.own[j]
	}
	return out
}

func (g *gen) key() string {
	g.keys++
	return strconv.FormatInt(g.keys, 36)
}

// heartbeats returns n heartbeats, visiting the owned devices in
// seeded passes.
func (g *gen) heartbeats(n int, keyed, bound bool) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		for _, d := range g.perm() {
			if len(out) == n {
				break
			}
			o := op{kind: opStatus, dev: d, bound: bound}
			if keyed {
				o.key = g.key()
			}
			out = append(out, o)
		}
	}
	return out
}

// cycles returns n bind → keyed heartbeat → unbind cycles over unbound
// devices, in seeded passes. Every device ends unbound.
func (g *gen) cycles(n int) []op {
	out := make([]op, 0, 3*n)
	for len(out) < 3*n {
		for _, d := range g.perm() {
			if len(out) == 3*n {
				break
			}
			out = append(out,
				op{kind: opBind, dev: d},
				op{kind: opStatus, dev: d, bound: true, key: g.key()},
				op{kind: opUnbind, dev: d})
		}
	}
	return out
}
