// Package fabric models a cluster interconnect on top of the sim kernel.
//
// A Network connects Nodes through a non-blocking switch. Each node has a
// full-duplex NIC: transmissions serialize at the sender's TX port and the
// receiver's RX port at the transport's bandwidth, then cross the wire after
// the transport's base latency. Each message additionally costs host CPU at
// both ends (protocol processing: copies, interrupts, TCP/IP stack work) —
// that term is what distinguishes RDMA from IPoIB and GigE at equal wire
// speed, and it is what saturates a single server as client counts grow.
//
// Services register per-node request handlers; CallT performs an RPC in
// virtual time and hands the result to a continuation, and Call is the same
// RPC for a blocking process.
package fabric

import (
	"fmt"
	"time"

	"imca/internal/metrics"
	"imca/internal/sim"
)

// Transport describes a network technology's first-order performance model.
type Transport struct {
	Name string
	// Latency is the one-way wire+switch latency per message.
	Latency sim.Duration
	// Bandwidth is the link speed in bytes/second.
	Bandwidth float64
	// HostOverhead is CPU time consumed per message at each end for
	// protocol processing (near zero for RDMA, significant for TCP/IP).
	HostOverhead sim.Duration
	// PerByteCPUNanos is the additional per-byte host CPU cost
	// (ns/byte) at each end — TCP copy and segmentation work that RDMA
	// largely eliminates.
	PerByteCPUNanos float64
}

// Transports calibrated to 2008-era hardware (the paper's testbed uses
// InfiniBand DDR HCAs; IPoIB RC is the transport for GlusterFS and IMCa).
// IPoIB's effective bandwidth is far below the DDR signalling rate, as was
// widely measured for TCP over IB at the time.
var (
	// GigE is NFS/TCP over Gigabit Ethernet.
	GigE = Transport{Name: "GigE", Latency: 45 * time.Microsecond, Bandwidth: 117e6, HostOverhead: 18 * time.Microsecond, PerByteCPUNanos: 1.2}
	// IPoIB is TCP over InfiniBand DDR with Reliable Connection.
	IPoIB = Transport{Name: "IPoIB", Latency: 22 * time.Microsecond, Bandwidth: 350e6, HostOverhead: 10 * time.Microsecond, PerByteCPUNanos: 1.0}
	// RDMA is native InfiniBand DDR RDMA (kernel-bypass).
	RDMA = Transport{Name: "RDMA", Latency: 8 * time.Microsecond, Bandwidth: 1200e6, HostOverhead: 2 * time.Microsecond, PerByteCPUNanos: 0.15}
)

// xmitTime returns the serialization delay for n bytes.
func (t Transport) xmitTime(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / t.Bandwidth * 1e9)
}

// HeaderBytes is the fixed per-message framing cost (transport + RPC
// headers).
const HeaderBytes = 96

// Msg is any RPC payload that can report its wire size (excluding framing).
type Msg interface {
	WireSize() int64
}

// Handler serves one request on the destination node; it runs in its own
// simulated process and may block (CPU, disk, nested Calls). It is the
// shape for services written as ordinary blocking code (Lustre, NFS).
type Handler func(p *sim.Proc, from *Node, req Msg) Msg

// HandlerT is a task-native service handler: it runs in scheduler context
// on the destination node, advances through the kernel's *T primitives
// instead of blocking, and delivers its response by calling respond
// exactly once. The RPC's serve side is then plain heap events, with no
// process per request; its dispatch costs the one scheduled event a
// Handler's process start does.
type HandlerT func(t *sim.Task, from *Node, req Msg, respond func(Msg))

// Recyclable is implemented by pooled messages. After CallT delivers a
// response and the caller's continuation returns, the fabric recycles a
// Recyclable response; a Recyclable request is recycled when the call's
// frame retires (both the caller's continuation and the far side are done
// with it). Blocking Call refuses a Recyclable response: its result
// escapes to the caller.
type Recyclable interface {
	Recycle()
}

// service is a registered handler plus its interned names — op is the bare
// service name (span label), name the "node/service" process name — both
// resolved once at registration instead of per call.
type service struct {
	h    Handler
	ht   HandlerT
	op   string
	name string
}

// Network is a set of nodes joined by one transport through a non-blocking
// switch.
type Network struct {
	env       *sim.Env
	transport Transport
	nodes     map[string]*Node
	// faults is nil until a fault API (CutLink, DegradeLink, ...) is first
	// used; see fault.go. Call's hot path pays one nil check for it.
	faults *netFaults
}

// NewNetwork returns an empty network using the given transport.
func NewNetwork(env *sim.Env, transport Transport) *Network {
	return &Network{env: env, transport: transport, nodes: make(map[string]*Node)}
}

// Env returns the simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// Transport returns the transport in use.
func (n *Network) Transport() Transport { return n.transport }

// Node is a host on the network.
type Node struct {
	net  *Network
	name string

	// CPU models the host's cores; protocol processing and service work
	// contend for it.
	CPU *sim.Resource

	tx, rx   *sim.Resource
	services map[string]*service

	// frames is the node's free list of outgoing call frames (see
	// frame.go).
	frames sim.Free[callFrame]

	// Traffic accounting.
	TxBytes, RxBytes int64
	TxMsgs, RxMsgs   int64
	// UnreachableCalls counts calls this node gave up on because the link
	// to the destination was cut.
	UnreachableCalls int64

	// rtt, when registered, records the full round-trip of every
	// successful Call/CallT from this node — request serialization,
	// service, response — as a latency distribution. Nil (a no-op) until
	// Register runs.
	rtt *metrics.Histogram
}

// NewNode adds a host with the given number of CPU cores.
func (n *Network) NewNode(name string, cores int) *Node {
	if _, dup := n.nodes[name]; dup {
		panic("fabric: duplicate node name " + name)
	}
	node := &Node{
		net:      n,
		name:     name,
		CPU:      sim.NewResource(n.env, cores),
		tx:       sim.NewResource(n.env, 1),
		rx:       sim.NewResource(n.env, 1),
		services: make(map[string]*service),
	}
	n.nodes[name] = node
	return node
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

func (nd *Node) String() string { return "node " + nd.name }

// Handle registers a blocking (process-backed) service handler on the node.
func (nd *Node) Handle(name string, h Handler) {
	nd.register(name).h = h
}

// HandleT registers a task-native service handler on the node; see
// HandlerT. A service is one or the other, never both.
func (nd *Node) HandleT(name string, ht HandlerT) {
	nd.register(name).ht = ht
}

// register interns the service entry — including its "node/service"
// process name, so the RPC hot path never concatenates a string per call —
// and panics on duplicate registration.
func (nd *Node) register(name string) *service {
	if _, dup := nd.services[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate service %q on %s", name, nd.name))
	}
	svc := &service{op: name, name: nd.name + "/" + name}
	nd.services[name] = svc
	return svc
}

// Binding is a pre-resolved (caller, destination, service) route: the
// service lookup, cross-network check, and handler-name interning happen
// once at Bind time, leaving the per-call path nothing to resolve. Clients
// that talk to a fixed peer set (a memcached bank, a brick) bind once at
// construction and call through the binding thereafter.
type Binding struct {
	nd  *Node
	dst *Node
	svc *service
}

// Bind resolves service on dst once, for calls originating at nd. The
// service must already be registered.
func (nd *Node) Bind(dst *Node, service string) *Binding {
	return &Binding{nd: nd, dst: dst, svc: nd.resolve(dst, service)}
}

// resolve looks service up on dst for a call from nd; an unknown service or
// a destination on another network is a wiring bug and panics.
func (nd *Node) resolve(dst *Node, service string) *service {
	if nd.net != dst.net {
		panic("fabric: cross-network call")
	}
	svc, ok := dst.services[service]
	if !ok {
		panic(fmt.Sprintf("fabric: no service %q on %s", service, dst.name))
	}
	return svc
}

// hostCost is the per-message CPU charge at one end.
func (t Transport) hostCost(wire int64) sim.Duration {
	return t.HostOverhead + sim.Duration(float64(wire)*t.PerByteCPUNanos)
}

// CallT performs an RPC from nd to dst: the request crosses the network —
// sender CPU, TX serialization, wire latency, RX serialization, receiver
// CPU — the service's handler runs on dst, the response crosses back the
// same way, and k receives the result.
//
// When the network carries fault state (see fault.go), a call on a cut
// link fails with ErrUnreachable — after the connect timeout if the link
// was already down, or at the cut instant if the cut lands mid-flight —
// and degraded links stretch each wire leg. It is the only error k can
// receive. The far side of a call cut mid-flight is unaware: the handler
// still runs to completion, and its response is dropped unless the link has
// healed by then. Tracing costs no virtual time.
//
// The call's entire state machine lives in a pooled per-node frame (see
// frame.go): wire legs and completion delivery are preallocated method
// values on a recycled struct, so a steady-state CallT allocates nothing.
// A response that is Recyclable is lent to k and goes back to its pool when
// k returns.
func (nd *Node) CallT(t *sim.Task, dst *Node, service string, req Msg, k func(Msg, error)) {
	callT(nd, dst, nd.resolve(dst, service), t, req, k)
}

// CallT performs the bound RPC; see Node.CallT. The service resolution and
// destination checks happened at Bind time, so the per-call path starts at
// the frame.
func (b *Binding) CallT(t *sim.Task, req Msg, k func(Msg, error)) {
	callT(b.nd, b.dst, b.svc, t, req, k)
}

// Call is CallT for a blocking caller: p awaits the RPC and receives its
// result. The response must be the caller's to keep, so a Recyclable
// (pooled) response is refused with a panic rather than handed back and
// recycled under the caller: services with pooled replies are reached
// through CallT, whose continuation copies what it keeps.
func (nd *Node) Call(p *sim.Proc, dst *Node, service string, req Msg) (resp Msg, err error) {
	svc := nd.resolve(dst, service)
	p.Await(func(t *sim.Task) {
		callT(nd, dst, svc, t, req, func(m Msg, e error) {
			if _, pooled := m.(Recyclable); pooled {
				panic(fmt.Sprintf("fabric: blocking Call to %s got a pooled %T; use CallT", svc.name, m))
			}
			resp, err = m, e
			t.End()
		})
	})
	return resp, err
}

// Bytes is a convenience Msg for raw payloads of a given size.
type Bytes int64

// WireSize implements Msg.
func (b Bytes) WireSize() int64 { return int64(b) }
