package main

import (
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"slices"
	"strings"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/cluster"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// The composed stack's fixed shape.
const (
	nodeCount = 3
	walShards = 4
	walPolicy = wal.SyncGrouped
	userCount = 8
)

// design is the token-free cluster design: device-ID authentication,
// device-initiated ACL binding with (UserID, password), Unbind : DevId.
var design = testbed.ClusterLabDesign()

// fleet is the device population and the accounts that own it.
type fleet struct {
	ids []string
}

func newFleet(devices int) fleet {
	f := fleet{ids: make([]string, devices)}
	for i := range f.ids {
		f.ids[i] = fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return f
}

func (f fleet) registry() (*cloud.Registry, error) {
	reg := cloud.NewRegistry()
	for _, id := range f.ids {
		if err := reg.Add(cloud.DeviceRecord{ID: id, FactorySecret: "factory-" + id, Model: design.Name}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// user returns the account that owns device d.
func user(d int32) (id, password string) {
	k := int(d) % userCount
	return fmt.Sprintf("user-%d@bench.example", k), fmt.Sprintf("pw-%d", k)
}

func registerUsers(c transport.Cloud) error {
	for k := int32(0); k < userCount; k++ {
		id, pw := user(k)
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: id, Password: pw}); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
	}
	return nil
}

// send issues one op and checks its response.
func send(c transport.Cloud, f fleet, o op) error {
	id := f.ids[o.dev]
	switch o.kind {
	case opRegister:
		_, err := c.HandleStatus(protocol.StatusRequest{
			Kind: protocol.StatusRegister, DeviceID: id, Firmware: "1.0", Model: design.Name,
		})
		return err
	case opStatus:
		resp, err := c.HandleStatus(protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: o.key,
		})
		if err == nil && resp.Bound != o.bound {
			err = fmt.Errorf("heartbeat %s reports bound=%v, want %v", id, resp.Bound, o.bound)
		}
		return err
	case opBind:
		uid, pw := user(o.dev)
		resp, err := c.HandleBind(protocol.BindRequest{
			DeviceID: id, UserID: uid, UserPassword: pw, Sender: core.SenderDevice,
		})
		if err == nil && resp.BoundUser != uid {
			err = fmt.Errorf("bind %s bound %q, want %q", id, resp.BoundUser, uid)
		}
		return err
	case opUnbind:
		return c.HandleUnbind(protocol.UnbindRequest{DeviceID: id, Sender: core.SenderDevice})
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// stack is the composed request path: binapi socket → Router → three
// Nodes (primary + replica, ack-after-replicate) → Durable.
type stack struct {
	nodes   []*cluster.Node
	router  *cluster.Router
	srv     *binapi.Server
	ln      net.Listener
	served  chan error
	clients []*binapi.Client
}

// openStack composes the stack under dir with conns client connections.
// A non-nil tracer wraps the Router handed to the server and each Node
// inside its Switchable.
func openStack(dir string, f fleet, tr *tracer) (*stack, error) {
	s := &stack{}
	reg, err := f.registry()
	if err != nil {
		return nil, err
	}
	names := make([]string, nodeCount)
	members := make(map[string]*transport.Switchable, nodeCount)
	for k := range names {
		names[k] = fmt.Sprintf("node-%d", k)
		n, err := cluster.NewNode(cluster.NodeConfig{
			Name:              names[k],
			Dir:               filepath.Join(dir, names[k]),
			Design:            design,
			Registry:          reg,
			WALShards:         walShards,
			WAL:               wal.Options{Policy: walPolicy},
			AckAfterReplicate: true,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		members[names[k]] = transport.NewSwitchable(tr.wrap(layerNode, n))
	}
	ring, err := cluster.NewRing(names, 0)
	if err == nil {
		s.router, err = cluster.NewRouter(ring, members)
	}
	if err == nil {
		s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = binapi.NewServer(tr.wrap(layerRouter, s.router), binapi.WithReadiness(binapi.ReadinessEpoll))
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.ln) }()
	for c := 0; c < conns; c++ {
		cl, err := binapi.Dial(s.ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// clouds returns the client connections as transport.Cloud values.
func (s *stack) clouds() []transport.Cloud {
	out := make([]transport.Cloud, len(s.clients))
	for i, c := range s.clients {
		out[i] = c
	}
	return out
}

// wireBytes sums the bytes every client sent and received.
func (s *stack) wireBytes() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.BytesIn() + c.BytesOut()
	}
	return n
}

// close tears the stack down and waits for the server's goroutines.
func (s *stack) close() error {
	for _, c := range s.clients {
		_ = c.Close()
	}
	var first error
	if s.srv != nil {
		_ = s.srv.Close()
		if err := <-s.served; err != nil {
			first = err
		}
	}
	if s.ln != nil {
		_ = s.ln.Close() // Serve leaves it open if Close came first
	}
	for _, n := range s.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// replicationLag sums the nodes' replication lag.
func (s *stack) replicationLag() uint64 {
	var lag uint64
	for _, n := range s.nodes {
		lag += n.ReplicationLag()
	}
	return lag
}

// checkReplicas requires every replica to hold exactly its primary's
// per-shard watermarks, with no replication lag.
func (s *stack) checkReplicas() error {
	for _, n := range s.nodes {
		if lag := n.ReplicationLag(); lag != 0 {
			return fmt.Errorf("%s: replication lag %d", n.Name(), lag)
		}
		p, r := n.Primary().ShardWatermarks(), n.Replica().ShardWatermarks()
		if !slices.Equal(p, r) {
			return fmt.Errorf("%s: replica watermarks %v, primary %v", n.Name(), r, p)
		}
	}
	return nil
}

// checkBindings requires every device to be bound to its account
// (bound) or to nobody.
func (s *stack) checkBindings(f fleet, bound bool) error {
	for d, id := range f.ids {
		st, err := s.router.ShadowState(protocol.ShadowStateRequest{DeviceID: id})
		if err != nil {
			return fmt.Errorf("shadow %s: %w", id, err)
		}
		want := ""
		if bound {
			want, _ = user(int32(d))
		}
		if st.BoundUser != want || st.State.BoundToUser() != bound {
			return fmt.Errorf("device %s ends in state %v bound to %q, want %q", id, st.State, st.BoundUser, want)
		}
	}
	return nil
}

// walUsage is the WAL footprint under a stack's directory.
type walUsage struct {
	primary, replica int64 // segment bytes
	segments         int
}

func measureWAL(dir string) (walUsage, error) {
	var u walUsage
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".wal") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		u.segments++
		if strings.Contains(path, string(filepath.Separator)+"replica"+string(filepath.Separator)) {
			u.replica += info.Size()
		} else {
			u.primary += info.Size()
		}
		return nil
	})
	return u, err
}
