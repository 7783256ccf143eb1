package memcache

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// simBank builds a client node plus n MCDs on an IPoIB network.
func simBank(n int, mcdMemMB int64) (*sim.Env, *SimClient) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	client := net.NewNode("client", 8)
	servers := make([]*SimServer, n)
	for i := range servers {
		servers[i] = NewSimServer(net.NewNode(fmt.Sprintf("mcd%d", i), 8), mcdMemMB<<20)
	}
	return env, NewSimClient(client, servers)
}

func TestSimSetGet(t *testing.T) {
	env, cl := simBank(1, 64)
	env.Process("t", func(p *sim.Proc) {
		if err := cl.Set(p, "k", blob.FromString("value")); err != nil {
			t.Fatal(err)
		}
		it, ok := cl.Get(p, "k")
		if !ok || string(it.Value.Bytes()) != "value" {
			t.Errorf("get = %v, %v", it, ok)
		}
		if _, ok := cl.Get(p, "missing"); ok {
			t.Error("hit on missing key")
		}
	})
	env.Run()
}

func TestSimGetCostsARoundTrip(t *testing.T) {
	env, cl := simBank(1, 64)
	var getTime sim.Duration
	env.Process("t", func(p *sim.Proc) {
		cl.Set(p, "k", blob.FromString("v"))
		start := p.Now()
		cl.Get(p, "k")
		getTime = p.Now().Sub(start)
	})
	env.Run()
	if getTime < 2*fabric.IPoIB.Latency {
		t.Errorf("get took %v, below a network round trip", getTime)
	}
	if getTime > time.Millisecond {
		t.Errorf("get took %v, implausibly slow", getTime)
	}
}

func TestSimDelete(t *testing.T) {
	env, cl := simBank(2, 64)
	env.Process("t", func(p *sim.Proc) {
		cl.Set(p, "k", blob.FromString("v"))
		if !cl.Delete(p, "k") {
			t.Error("delete of present key reported not found")
		}
		if cl.Delete(p, "k") {
			t.Error("delete of absent key reported found")
		}
		if _, ok := cl.Get(p, "k"); ok {
			t.Error("key present after delete")
		}
	})
	env.Run()
}

func TestSimKeysSpreadAcrossBank(t *testing.T) {
	env, cl := simBank(4, 64)
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			cl.Set(p, fmt.Sprintf("key-%d", i), blob.FromString("v"))
		}
	})
	env.Run()
	for i, s := range cl.Servers() {
		if s.Store().Len() == 0 {
			t.Errorf("mcd%d received no keys (bad CRC32 spread)", i)
		}
	}
	if got := daemonTotal(cl).CurrItems; got != 200 {
		t.Errorf("bank total = %d, want 200", got)
	}
}

// daemonTotal sums the Stats of cl's daemons.
func daemonTotal(cl *SimClient) Stats {
	var total Stats
	for _, s := range cl.servers {
		total.Add(s.Store().Stats())
	}
	return total
}

// hitCount counts the present entries of a multi-get result.
func hitCount(items []*Item) int {
	n := 0
	for _, it := range items {
		if it != nil {
			n++
		}
	}
	return n
}

func TestSimGetMultiBatchesPerServer(t *testing.T) {
	env, cl := simBank(4, 64)
	keys := make([]string, 32)
	env.Process("t", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = fmt.Sprintf("mk-%d", i)
			cl.Set(p, keys[i], blob.FromString("v"))
		}
		items := cl.GetMulti(p, keys)
		if n := hitCount(items); n != len(keys) {
			t.Errorf("GetMulti returned %d, want %d", n, len(keys))
		}
	})
	env.Run()
	// One batched get per server, not one per key: each store's CmdGet
	// counts keys, but message counts stay at one per server per phase.
	var totalGets uint64
	for _, s := range cl.Servers() {
		totalGets += s.Store().Stats().CmdGet
	}
	if totalGets != 32 {
		t.Errorf("store-level gets = %d, want 32", totalGets)
	}
}

func TestSimGetMultiParallelAcrossServers(t *testing.T) {
	// Fetching 4 large values spread over 4 MCDs should take much less
	// than 4x one fetch, because the per-server batches run in parallel.
	mkKeys := func(cl *SimClient) []string {
		// Pick keys that land on distinct servers.
		used := map[int]string{}
		for i := 0; len(used) < 4 && i < 10000; i++ {
			k := fmt.Sprintf("pk-%d", i)
			s := cl.selector.Pick(k, 4)
			if _, ok := used[s]; !ok {
				used[s] = k
			}
		}
		out := make([]string, 0, 4)
		for s := 0; s < 4; s++ {
			out = append(out, used[s])
		}
		return out
	}

	env, cl := simBank(4, 64)
	keys := mkKeys(cl)
	const valSize = 256 << 10
	var oneAtATime, batched sim.Duration
	env.Process("t", func(p *sim.Proc) {
		for _, k := range keys {
			cl.Set(p, k, blob.Synthetic(1, 0, valSize))
		}
		start := p.Now()
		for _, k := range keys {
			cl.Get(p, k)
		}
		oneAtATime = p.Now().Sub(start)
		start = p.Now()
		items := cl.GetMulti(p, keys)
		batched = p.Now().Sub(start)
		if n := hitCount(items); n != 4 {
			t.Fatalf("GetMulti found %d of 4", n)
		}
	})
	env.Run()
	if batched >= oneAtATime {
		t.Errorf("batched multi-get (%v) not faster than serial gets (%v)", batched, oneAtATime)
	}
}

func TestSimCapacityEvictions(t *testing.T) {
	// A 2MB MCD cannot hold 4MB of values: evictions must appear and
	// early keys must miss.
	env, cl := simBank(1, 2)
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			cl.Set(p, fmt.Sprintf("big-%d", i), blob.Synthetic(uint64(i), 0, 64<<10))
		}
		if _, ok := cl.Get(p, "big-0"); ok {
			t.Error("oldest item survived in an overcommitted MCD")
		}
		if _, ok := cl.Get(p, "big-63"); !ok {
			t.Error("newest item missing")
		}
	})
	env.Run()
	if daemonTotal(cl).Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestSimServerSharedByManyClients(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srv := NewSimServer(net.NewNode("mcd", 8), 64<<20)
	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		node := net.NewNode(fmt.Sprintf("c%d", i), 8)
		cl := NewSimClient(node, []*SimServer{srv})
		i := i
		env.Process("client", func(p *sim.Proc) {
			key := fmt.Sprintf("shared-%d", i)
			cl.Set(p, key, blob.FromString("v"))
			if _, ok := cl.Get(p, key); !ok {
				t.Errorf("client %d lost its key", i)
			}
			done++
		})
	}
	env.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
	if srv.Store().Len() != n {
		t.Errorf("server items = %d, want %d", srv.Store().Len(), n)
	}
}

func TestSimStoreExpiresOnVirtualClock(t *testing.T) {
	env, cl := simBank(1, 64)
	store := cl.Servers()[0].Store()
	env.Process("t", func(p *sim.Proc) {
		// Store an item expiring 5 virtual seconds from now, directly via
		// the engine (IMCa itself never sets TTLs).
		store.Set(&Item{Key: "ttl", Value: blob.FromString("v"),
			Expiration: int64(p.Now().Seconds()) + 5})
		if _, err := store.Get("ttl"); err != nil {
			t.Fatal("item missing before expiry")
		}
		p.Sleep(6 * time.Second) // virtual time, instantaneous on the wall
		if _, err := store.Get("ttl"); err != ErrCacheMiss {
			t.Error("item survived its virtual-time expiry")
		}
	})
	env.Run()
}

func TestSimGetMultiWithOneMCDDown(t *testing.T) {
	// Fail 1 MCD of 4: GetMulti must return exactly the keys served by the
	// survivors, count the dead daemon's reset, and never stall.
	env, cl := simBank(4, 64)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("dk-%d", i)
	}
	victim := 2
	var onDead, onLive int
	for _, k := range keys {
		if cl.selector.Pick(k, 4) == victim {
			onDead++
		} else {
			onLive++
		}
	}
	if onDead == 0 || onLive == 0 {
		t.Fatal("key set does not exercise both dead and live MCDs")
	}
	env.Process("t", func(p *sim.Proc) {
		for _, k := range keys {
			cl.Set(p, k, blob.FromString("v"))
		}
		cl.Servers()[victim].Fail()
		items := cl.GetMulti(p, keys)
		if n := hitCount(items); n != onLive {
			t.Errorf("GetMulti found %d keys, want %d (the live MCDs' share)", n, onLive)
		}
		for i, k := range keys {
			got := items[i] != nil
			wantHit := cl.selector.Pick(k, 4) != victim
			if got != wantHit {
				t.Errorf("key %s: hit=%v, want %v", k, got, wantHit)
			}
		}
	})
	env.Run()
	if got := cl.Stats().DownReplies; got != 1 {
		t.Errorf("DownReplies = %d, want 1 (one batched request hit the dead MCD)", got)
	}
}

func TestSimGetFromDownMCDIsAMiss(t *testing.T) {
	env, cl := simBank(1, 64)
	env.Process("t", func(p *sim.Proc) {
		cl.Set(p, "k", blob.FromString("v"))
		cl.Servers()[0].Fail()
		if _, ok := cl.Get(p, "k"); ok {
			t.Error("hit from a failed daemon")
		}
		if err := cl.Set(p, "k", blob.FromString("v")); err != ErrServerDown {
			t.Errorf("Set on dead MCD: err = %v, want ErrServerDown", err)
		}
		cl.Servers()[0].Recover()
		if _, ok := cl.Get(p, "k"); ok {
			t.Error("recovered daemon should restart empty")
		}
	})
	env.Run()
	if got := cl.Stats().DownReplies; got != 2 {
		t.Errorf("DownReplies = %d, want 2 (one get + one set refused)", got)
	}
}

// TestGetTAllocations pins what one SimClient.GetT allocates in steady
// state, batch-amortised over warm pools as in fabric/frame_test.go: a hit,
// a miss, a fast-fail against an ejected server and a failover from an
// ejected primary to its replica allocate nothing; a get a down daemon
// answers allocates its reply, which handleT deliberately does not pool.
func TestGetTAllocations(t *testing.T) {
	const getsPerRun, runs = 64, 20
	for _, tc := range []struct {
		name string
		// setup readies the two-MCD bank for key, whose primary is mcd0 and
		// whose replica is mcd1.
		setup  func(cl *SimClient, key string)
		hit    bool
		perGet float64
	}{
		{"hit", func(cl *SimClient, key string) { storeOn(t, cl, 0, key) }, true, 0},
		{"miss", func(*SimClient, string) {}, false, 0},
		{"ejected fast-fail", func(cl *SimClient, _ string) {
			cl.SetEjection(1)
			cl.servers[0].Fail()
		}, false, 0},
		{"ejected with replica failover", func(cl *SimClient, key string) {
			cl.SetReplication(2)
			cl.SetEjection(1)
			storeOn(t, cl, 1, key)
			cl.servers[0].Fail()
		}, true, 0},
		{"down daemon", func(cl *SimClient, _ string) { cl.servers[0].Fail() }, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, cl := simBank(2, 64)
			key := keysFor(cl)[0]
			if replicaKey(cl.selector, key, 2) != 1 {
				t.Fatalf("key %q has no replica on mcd1", key)
			}
			tc.setup(cl, key)
			ct := env.ContextTask("bench")
			gets, hits := 0, 0
			k := func(_ *Item, hit bool) {
				gets++
				if hit {
					hits++
				}
			}
			run := func() {
				for i := 0; i < getsPerRun; i++ {
					cl.GetT(ct, key, k)
				}
				env.Run()
			}
			run() // warm the pools; an ejecting case ejects mcd0 here
			gets, hits = 0, 0
			if avg, want := testing.AllocsPerRun(runs, run), tc.perGet*getsPerRun; avg != want {
				t.Errorf("batch of %d gets allocated %.0f times, want %.0f (%.0f per get)", getsPerRun, avg, want, tc.perGet)
			}
			// AllocsPerRun invokes run once to warm up, then runs times measured.
			wantHits := 0
			if tc.hit {
				wantHits = (runs + 1) * getsPerRun
			}
			if want := (runs + 1) * getsPerRun; gets != want || hits != wantHits {
				t.Errorf("%d gets completed with %d hits, want %d with %d", gets, hits, want, wantHits)
			}
		})
	}
}

// storeOn puts key straight into server i's store.
func storeOn(t *testing.T, cl *SimClient, i int, key string) {
	t.Helper()
	if err := cl.servers[i].Store().Set(&Item{Key: key, Value: blob.FromString("v")}); err != nil {
		t.Fatal(err)
	}
}

// TestWireSizes pins each verb's request and response size to the literal
// byte count of the simulated protocol's framing, so a drifted header fails
// here and not as a moved virtual-time table.
func TestWireSizes(t *testing.T) {
	testKeys := func(keys ...string) keyList {
		buf, ends := flatKeys(keys)
		return keyList{buf, ends}
	}
	item := Item{Key: "block:7", Value: blob.Synthetic(1, 0, 2048)} // 7-byte key
	for _, tc := range []struct {
		req      request
		wantReq  int64
		resp     response
		wantResp int64
	}{
		{request{verb: verbGet, keys: testKeys("block:7", "k")}, 8 + (7 + 1) + (1 + 1),
			response{items: []*Item{&item, &item}}, 8 + 2*(7+2048+40)},
		{request{verb: verbGet, keys: testKeys("k")}, 8 + (1 + 1), response{down: true}, 8},
		{request{verb: verbSet, item: item}, 7 + 2048 + 40, response{err: "too large"}, 8 + 9},
		{request{verb: verbSet, item: item}, 7 + 2048 + 40, response{}, 8},
		{request{verb: verbDelete, keys: testKeys("block:7")}, 8 + 7, response{found: true}, 8},
	} {
		if got := tc.req.WireSize(); got != tc.wantReq {
			t.Errorf("%v request: %d bytes, want %d", tc.req.verb, got, tc.wantReq)
		}
		if got := tc.resp.WireSize(); got != tc.wantResp {
			t.Errorf("%v response %+v: %d bytes, want %d", tc.req.verb, tc.resp, got, tc.wantResp)
		}
	}
}

// TestSimUnreachableIsAMiss: the wire's one failure — a cut link — turns a
// get into a miss, drops a set and a delete, and counts as unreachable, not
// as a down reply; the span says which.
func TestSimUnreachableIsAMiss(t *testing.T) {
	env, cl := simBank(1, 64)
	col := optrace.NewCollector()
	env.Process("t", func(p *sim.Proc) {
		cl.Set(p, "k", blob.FromString("v"))
		cl.node.Network().CutLink("client", "mcd0")
		col.Begin(p, "get")
		start := p.Now()
		if _, ok := cl.Get(p, "k"); ok {
			t.Error("hit across a cut link")
		}
		if waited := p.Now().Sub(start); waited != fabric.DefaultConnectTimeout {
			t.Errorf("get on a cut link took %v, want the connect timeout", waited)
		}
		col.End(p)
		if err := cl.Set(p, "k", blob.FromString("w")); err != fabric.ErrUnreachable {
			t.Errorf("Set across a cut link: err = %v, want ErrUnreachable", err)
		}
		if cl.Delete(p, "k") {
			t.Error("Delete across a cut link reported the key found")
		}
		cl.node.Network().HealLink("client", "mcd0")
		if it, ok := cl.Get(p, "k"); !ok || string(it.Value.Bytes()) != "v" {
			t.Errorf("after the heal: get = %v, %v; want the value the cut-off set and delete never reached", it, ok)
		}
	})
	env.Run()
	if down, cut := cl.Stats().DownReplies, cl.Stats().Unreachables; down != 0 || cut != 3 {
		t.Errorf("DownReplies = %d, Unreachables = %d; want 0 and 3", down, cut)
	}
	var mcd *optrace.Span
	for _, s := range col.Last.Spans {
		if s.Layer == optrace.LayerMCD {
			mcd = s
		}
	}
	if mcd.Attr("result") != "unreachable" {
		t.Errorf("mcd span result = %q, want unreachable", mcd.Attr("result"))
	}
}
