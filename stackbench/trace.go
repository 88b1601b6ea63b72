package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Span layers, outermost first. Each layer's span is the parent of the
// next one's.
const (
	layerClient = iota // the benchmark's call on its binapi.Client
	layerRouter        // the Router handed to binapi.NewServer
	layerNode          // a cluster.Node inside its Switchable
	layerCount
)

var layerNames = [layerCount]string{"client", "router", "node"}

// tracer keeps the spans of the timed ops in memory. A connection owns
// its devices and has one request in flight, so the device ID names
// the request: drive publishes each timed op's ID on its device
// before sending, and the decorators look it up.
type tracer struct {
	base   time.Time
	devIdx map[string]int32
	cur    []atomic.Int64 // per device: ID of its in-flight timed op, or -1
	spans  [layerCount][]span
}

// span is one layer's interval for one op, in ns since base. The
// server-side layers write from the server's goroutines, so the fields
// are atomic.
type span struct {
	start, end atomic.Int64
}

func newTracer(f fleet, ops int) *tracer {
	t := &tracer{base: time.Now(), devIdx: make(map[string]int32, len(f.ids)), cur: make([]atomic.Int64, len(f.ids))}
	for i, id := range f.ids {
		t.devIdx[id] = int32(i)
		t.cur[i].Store(-1)
	}
	for l := range t.spans {
		t.spans[l] = make([]span, ops)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin publishes op id as dev's in-flight request.
func (t *tracer) begin(dev int32, id int64) { t.cur[dev].Store(id) }

// end clears dev's in-flight request.
func (t *tracer) end(dev int32) { t.cur[dev].Store(-1) }

func (t *tracer) record(layer int, dev string, start, end int64) {
	d, ok := t.devIdx[dev]
	if !ok {
		return
	}
	if id := t.cur[d].Load(); id >= 0 {
		t.set(layer, id, start, end)
	}
}

func (t *tracer) set(layer int, id, start, end int64) {
	t.spans[layer][id].start.Store(start)
	t.spans[layer][id].end.Store(end)
}

// selfTimes returns each layer's self time per op in ns: its span minus
// its child's (the node span has no traced child). It fails if any op
// lacks a span.
func (t *tracer) selfTimes() ([layerCount][]int64, error) {
	var out [layerCount][]int64
	n := len(t.spans[0])
	for l := range out {
		out[l] = make([]int64, n)
	}
	for id := 0; id < n; id++ {
		var dur [layerCount]int64
		for l := range dur {
			s := &t.spans[l][id]
			dur[l] = s.end.Load() - s.start.Load()
			if s.end.Load() == 0 {
				return out, fmt.Errorf("op %d has no %s span", id, layerNames[l])
			}
		}
		for l := range dur {
			out[l][id] = dur[l]
			if l+1 < layerCount {
				out[l][id] -= dur[l+1]
			}
		}
	}
	return out, nil
}

// writeSpans writes every span as "id,name,start_ns,end_ns,parent".
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for id := range t.spans[0] {
		for l := range t.spans {
			parent := "-"
			if l > 0 {
				parent = layerNames[l-1]
			}
			s := &t.spans[l][id]
			fmt.Fprintf(w, "%d,%s,%d,%d,%s\n", id, layerNames[l], s.start.Load(), s.end.Load(), parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap decorates c so that the ops the workloads send record spans at
// layer. A nil tracer returns c unchanged.
func (t *tracer) wrap(layer int, c transport.Cloud) transport.Cloud {
	if t == nil {
		return c
	}
	return &traced{Cloud: c, t: t, layer: layer}
}

// traced embeds transport.Cloud and overrides only Status, Bind and
// Unbind.
type traced struct {
	transport.Cloud
	t     *tracer
	layer int
}

func (c *traced) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	start := c.t.now()
	resp, err := c.Cloud.HandleStatus(req)
	c.t.record(c.layer, req.DeviceID, start, c.t.now())
	return resp, err
}

func (c *traced) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	start := c.t.now()
	resp, err := c.Cloud.HandleBind(req)
	c.t.record(c.layer, req.DeviceID, start, c.t.now())
	return resp, err
}

func (c *traced) HandleUnbind(req protocol.UnbindRequest) error {
	start := c.t.now()
	err := c.Cloud.HandleUnbind(req)
	c.t.record(c.layer, req.DeviceID, start, c.t.now())
	return err
}
