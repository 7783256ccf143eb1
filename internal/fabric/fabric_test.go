package fabric

import (
	"testing"
	"time"

	"imca/internal/sim"
)

// echo returns the request payload size as the response.
func echo(p *sim.Proc, from *Node, req Msg) Msg { return req }

func newPair(t *testing.T, tr Transport) (*sim.Env, *Node, *Node) {
	t.Helper()
	env := sim.NewEnv()
	net := NewNetwork(env, tr)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	b.Handle("echo", echo)
	return env, a, b
}

func TestCallRoundTripLatency(t *testing.T) {
	// A zero-payload RPC costs two transfers; each transfer pays
	// 2*HostOverhead + 2*xmit(header) + Latency, plus the caller-side
	// response processing overhead.
	env, a, b := newPair(t, IPoIB)
	var rtt sim.Duration
	env.Process("client", func(p *sim.Proc) {
		start := p.Now()
		a.Call(p, b, "echo", Bytes(0))
		rtt = p.Now().Sub(start)
	})
	env.Run()
	if rtt < 2*IPoIB.Latency {
		t.Errorf("RTT %v below 2x wire latency %v", rtt, 2*IPoIB.Latency)
	}
	if rtt > 200*time.Microsecond {
		t.Errorf("RTT %v implausibly high for IPoIB", rtt)
	}
}

func TestTransportOrdering(t *testing.T) {
	// RDMA < IPoIB < GigE for small-message RTT.
	var rtts []sim.Duration
	for _, tr := range []Transport{RDMA, IPoIB, GigE} {
		env, a, b := newPair(t, tr)
		env.Process("client", func(p *sim.Proc) {
			start := p.Now()
			a.Call(p, b, "echo", Bytes(16))
			rtts = append(rtts, p.Now().Sub(start))
		})
		env.Run()
	}
	if !(rtts[0] < rtts[1] && rtts[1] < rtts[2]) {
		t.Errorf("RTT ordering wrong: RDMA=%v IPoIB=%v GigE=%v", rtts[0], rtts[1], rtts[2])
	}
}

func TestLargeTransferBandwidthBound(t *testing.T) {
	// A 10 MB transfer over GigE must take at least 10e6/117e6 s each way.
	env, a, b := newPair(t, GigE)
	var elapsed sim.Duration
	env.Process("client", func(p *sim.Proc) {
		start := p.Now()
		a.Call(p, b, "echo", Bytes(10e6))
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	minOneWay := time.Duration(10e6 / GigE.Bandwidth * 1e9)
	if elapsed < 2*minOneWay {
		t.Errorf("10MB echo took %v, below bandwidth bound %v", elapsed, 2*minOneWay)
	}
}

func TestServerRxSerializesConcurrentSenders(t *testing.T) {
	// Two clients sending large messages to one server must serialize at
	// the server's RX port: total time ~2x one transfer's serialization.
	env := sim.NewEnv()
	net := NewNetwork(env, GigE)
	srv := net.NewNode("srv", 8)
	srv.Handle("echo", func(p *sim.Proc, from *Node, req Msg) Msg { return Bytes(0) })
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		c := net.NewNode("c"+string(rune('0'+i)), 8)
		env.Process("client", func(p *sim.Proc) {
			c.Call(p, srv, "echo", Bytes(5e6))
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	xmit := time.Duration(5e6 / GigE.Bandwidth * 1e9)
	last := finish[0]
	if finish[1] > last {
		last = finish[1]
	}
	if sim.Duration(last) < 2*xmit {
		t.Errorf("two 5MB sends finished by %v, faster than serialized RX bound %v", last, 2*xmit)
	}
}

func TestHandlerRunsOnServerAndCanSleep(t *testing.T) {
	env := sim.NewEnv()
	net := NewNetwork(env, RDMA)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	b.Handle("slow", func(p *sim.Proc, from *Node, req Msg) Msg {
		p.Sleep(time.Millisecond) // e.g. disk access
		return Bytes(0)
	})
	var rtt sim.Duration
	env.Process("client", func(p *sim.Proc) {
		start := p.Now()
		a.Call(p, b, "slow", Bytes(0))
		rtt = p.Now().Sub(start)
	})
	env.Run()
	if rtt < time.Millisecond {
		t.Errorf("RTT %v does not include handler service time", rtt)
	}
}

func TestNestedCalls(t *testing.T) {
	// b's handler calls c before answering (server contacting an MCD).
	env := sim.NewEnv()
	net := NewNetwork(env, IPoIB)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	c := net.NewNode("c", 8)
	c.Handle("leaf", echo)
	b.Handle("mid", func(p *sim.Proc, from *Node, req Msg) Msg {
		resp, _ := b.Call(p, c, "leaf", req)
		return resp
	})
	var direct, nested sim.Duration
	env.Process("client", func(p *sim.Proc) {
		s := p.Now()
		a.Call(p, c, "leaf", Bytes(8))
		direct = p.Now().Sub(s)
		s = p.Now()
		a.Call(p, b, "mid", Bytes(8))
		nested = p.Now().Sub(s)
	})
	env.Run()
	if nested < direct+2*IPoIB.Latency {
		t.Errorf("nested call %v not slower than direct %v by an extra hop", nested, direct)
	}
}

func TestTrafficAccounting(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	env.Process("client", func(p *sim.Proc) {
		a.Call(p, b, "echo", Bytes(1000))
	})
	env.Run()
	if a.TxMsgs != 1 || a.RxMsgs != 1 || b.TxMsgs != 1 || b.RxMsgs != 1 {
		t.Errorf("message counts wrong: a tx/rx=%d/%d b tx/rx=%d/%d", a.TxMsgs, a.RxMsgs, b.TxMsgs, b.RxMsgs)
	}
	if a.TxBytes != 1000+HeaderBytes {
		t.Errorf("a.TxBytes = %d, want %d", a.TxBytes, 1000+HeaderBytes)
	}
	if b.TxBytes != 1000+HeaderBytes { // echo returns same payload
		t.Errorf("b.TxBytes = %d, want %d", b.TxBytes, 1000+HeaderBytes)
	}
}

func TestUnknownServicePanics(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	env.Process("client", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic calling unknown service")
			}
		}()
		a.Call(p, b, "nope", Bytes(0))
	})
	env.Run()
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate node")
		}
	}()
	env := sim.NewEnv()
	net := NewNetwork(env, IPoIB)
	net.NewNode("x", 1)
	net.NewNode("x", 1)
}

func TestManyClientsOneServerCPUSaturation(t *testing.T) {
	// With a 1-core server and 10µs host overhead per message, 64
	// concurrent zero-payload RPCs must take at least 64 * (overhead for
	// req recv + resp send) of server CPU time in total.
	env := sim.NewEnv()
	net := NewNetwork(env, IPoIB)
	srv := net.NewNode("srv", 1)
	srv.Handle("echo", echo)
	var last sim.Time
	const n = 64
	for i := 0; i < n; i++ {
		c := net.NewNode(nodeName(i), 8)
		env.Process("client", func(p *sim.Proc) {
			c.Call(p, srv, "echo", Bytes(0))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	minCPU := sim.Duration(n) * 2 * IPoIB.HostOverhead
	if sim.Duration(last) < minCPU {
		t.Errorf("64 RPCs finished in %v, below server CPU bound %v", last, minCPU)
	}
}

// nodeName builds small distinct node names.

func nodeName(i int) string {
	return "c" + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

func TestPerByteCPUChargesHost(t *testing.T) {
	// Two transports identical except for per-byte host CPU: the large
	// transfer must take longer on the CPU-heavy one even at equal wire
	// speed, because host processing is on the critical path.
	mk := func(perByte float64) sim.Duration {
		tr := Transport{Name: "x", Latency: 10 * time.Microsecond, Bandwidth: 1e9, HostOverhead: time.Microsecond, PerByteCPUNanos: perByte}
		env := sim.NewEnv()
		net := NewNetwork(env, tr)
		a := net.NewNode("a", 1)
		b := net.NewNode("b", 1)
		b.Handle("echo", echo)
		var d sim.Duration
		env.Process("c", func(p *sim.Proc) {
			start := p.Now()
			a.Call(p, b, "echo", Bytes(1<<20))
			d = p.Now().Sub(start)
		})
		env.Run()
		return d
	}
	cheap := mk(0.1)
	heavy := mk(2.0)
	if heavy <= cheap {
		t.Errorf("per-byte host CPU had no effect: %v vs %v", heavy, cheap)
	}
	// 1MB at 1.9ns/B extra × several charge points must be milliseconds.
	if heavy-cheap < 4*time.Millisecond {
		t.Errorf("per-byte CPU delta %v implausibly small", heavy-cheap)
	}
}

func TestCPUContentionSlowsProtocolProcessing(t *testing.T) {
	// With a single-core receiver, many concurrent senders' protocol
	// processing serializes; with 8 cores it overlaps.
	mk := func(cores int) sim.Time {
		env := sim.NewEnv()
		net := NewNetwork(env, IPoIB)
		srv := net.NewNode("srv", cores)
		srv.Handle("echo", echo)
		var last sim.Time
		for i := 0; i < 16; i++ {
			c := net.NewNode(nodeName(i), 8)
			env.Process("c", func(p *sim.Proc) {
				c.Call(p, srv, "echo", Bytes(0))
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		env.Run()
		return last
	}
	one := mk(1)
	eight := mk(8)
	if one <= eight {
		t.Errorf("1-core server (%v) not slower than 8-core (%v)", one, eight)
	}
}
