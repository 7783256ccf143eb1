package memcache

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/sim"
)

// multiOutcome is everything one multi-get is allowed to show the world:
// the result, position by position ("" = nil), and what it cost.
type multiOutcome struct {
	Values    []string
	Elapsed   sim.Duration
	Events    uint64
	TxMsgs    int64
	Failovers uint64
	Downs     uint64
	FastFails uint64
}

// multiCase is one row of the GetMulti semantics table. prepare runs in a
// process on a fresh bank after the values are stored and arranges the
// fault; keys returns what to ask for; want is the expected result, aligned
// with keys.
type multiCase struct {
	name     string
	servers  int
	replicas int
	prepare  func(t *testing.T, env *sim.Env, cl *SimClient, p *sim.Proc, on [][]string)
	keys     func(on [][]string) []string
	want     func(on [][]string) []string
	check    func(t *testing.T, o multiOutcome)
}

// keysByServer returns n keys per server of cl's bank, so a case can name
// "a key on server 1" without caring what hashes there.
func keysByServer(cl *SimClient, n int) [][]string {
	out := make([][]string, len(cl.servers))
	for i, need := 0, n*len(out); need > 0; i++ {
		k := fmt.Sprintf("mk%d", i)
		s := cl.selector.Pick(k, len(out))
		if len(out[s]) < n {
			out[s] = append(out[s], k)
			need--
		}
	}
	return out
}

var multiCases = []multiCase{
	{
		name: "all hit", servers: 2,
		keys: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1], on[1][1]} },
		want: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1], on[1][1]} },
		check: func(t *testing.T, o multiOutcome) {
			if o.TxMsgs != 2 {
				t.Errorf("sent %d messages, want one batch per server", o.TxMsgs)
			}
		},
	},
	{
		name: "partial hit", servers: 2,
		keys: func(on [][]string) []string { return []string{"absent-a", on[0][0], "absent-b", on[1][0], "absent-c"} },
		want: func(on [][]string) []string { return []string{"", on[0][0], "", on[1][0], ""} },
	},
	{
		name: "one key", servers: 2,
		keys: func(on [][]string) []string { return []string{on[1][0]} },
		want: func(on [][]string) []string { return []string{on[1][0]} },
	},
	{
		name: "one key missing", servers: 2,
		keys: func(on [][]string) []string { return []string{"absent"} },
		want: func(on [][]string) []string { return []string{""} },
	},
	{
		// A key asked twice is answered in both positions — the map result
		// could only say it once.
		name: "duplicate keys", servers: 2,
		keys: func(on [][]string) []string {
			return []string{on[0][0], on[1][0], on[0][0], "absent", "absent", on[0][0]}
		},
		want: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][0], "", "", on[0][0]} },
	},
	{
		name: "server ejected at scatter time", servers: 2,
		prepare: func(t *testing.T, env *sim.Env, cl *SimClient, p *sim.Proc, on [][]string) {
			cl.SetEjection(1)
			cl.servers[0].Fail()
			cl.Get(p, on[0][0]) // the down reply ejects server 0
			if !cl.Ejected(0) {
				t.Fatal("server 0 not ejected")
			}
		},
		keys: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1]} },
		want: func(on [][]string) []string { return []string{"", on[1][0], ""} },
		check: func(t *testing.T, o multiOutcome) {
			if o.TxMsgs != 1 {
				t.Errorf("sent %d messages, want 1: the ejected server's keys must cost no wire message", o.TxMsgs)
			}
			if o.FastFails != 1 {
				t.Errorf("fastFails = %d, want 1 (one per batch, not per key)", o.FastFails)
			}
		},
	},
	{
		name: "R=2 scatter-time failover", servers: 2, replicas: 2,
		prepare: func(t *testing.T, env *sim.Env, cl *SimClient, p *sim.Proc, on [][]string) {
			cl.SetEjection(1)
			cl.servers[0].Fail()
			cl.Get(p, on[0][0]) // ejects server 0; the get itself fails over
			if !cl.Ejected(0) {
				t.Fatal("server 0 not ejected")
			}
		},
		keys: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1]} },
		want: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1]} },
		check: func(t *testing.T, o multiOutcome) {
			if o.TxMsgs != 1 {
				t.Errorf("sent %d messages, want 1: every key rides the replica's batch", o.TxMsgs)
			}
			if o.Failovers != 2 {
				t.Errorf("failovers = %d, want 2 (one per rerouted key)", o.Failovers)
			}
			if o.FastFails != 0 {
				t.Errorf("fastFails = %d, want 0: rerouted keys never touch the ejected server's gate", o.FastFails)
			}
		},
	},
	{
		// The collector waits on the first server's leg while the second's
		// reply lands: the join must hold that reply, not lose or reorder it.
		name: "second server answers first", servers: 2,
		prepare: func(t *testing.T, env *sim.Env, cl *SimClient, p *sim.Proc, on [][]string) {
			cl.servers[0].SetSlowdown(50)
		},
		keys: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[1][1], on[0][1]} },
		want: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[1][1], on[0][1]} },
	},
	{
		// The daemon dies after the scatter, before it replies: its leg
		// gathers a Down, the other leg's keys still arrive.
		name: "down reply mid-gather", servers: 2,
		prepare: func(t *testing.T, env *sim.Env, cl *SimClient, p *sim.Proc, on [][]string) {
			env.Defer(fabric.IPoIB.Latency/2, func() { cl.servers[0].Fail() })
		},
		keys: func(on [][]string) []string { return []string{on[0][0], on[1][0], on[0][1], on[1][1]} },
		want: func(on [][]string) []string { return []string{"", on[1][0], "", on[1][1]} },
		check: func(t *testing.T, o multiOutcome) {
			if o.TxMsgs != 2 || o.Downs != 1 {
				t.Errorf("sent %d messages with %d down replies, want 2 and 1", o.TxMsgs, o.Downs)
			}
		},
	},
}

// runMultiCase plays one case on a fresh bank with the given engine. Every
// stored value is its own key, so a result is checked by reading it.
func runMultiCase(t *testing.T, mc multiCase, task bool) (o multiOutcome, want []string) {
	t.Helper()
	env, cl := simBank(mc.servers, 64)
	cl.SetReplication(mc.replicas)
	on := keysByServer(cl, 2)
	keys := mc.keys(on)
	buf, ends := flatKeys(keys)
	var start sim.Time
	var ev0 uint64
	var tx0 int64
	snapshot := func(items []*Item, now sim.Time) {
		if len(items) != len(keys) {
			t.Fatalf("result has %d entries for %d keys", len(items), len(keys))
		}
		for i, it := range items {
			switch {
			case it == nil:
				o.Values = append(o.Values, "")
			case it.Key != keys[i]:
				t.Errorf("position %d holds key %q, asked for %q", i, it.Key, keys[i])
			default:
				o.Values = append(o.Values, string(it.Value.Bytes()))
			}
		}
		o.Elapsed = now.Sub(start)
		// Counted inside the continuation: the dispatch in progress is in,
		// whatever a late leg does afterwards is not.
		o.Events = env.EventsProcessed - ev0
		o.TxMsgs = cl.node.TxMsgs - tx0
	}
	env.Process("t", func(p *sim.Proc) {
		for _, ks := range on {
			for _, k := range ks {
				if err := cl.Set(p, k, blob.FromString(k)); err != nil {
					t.Fatalf("set %q: %v", k, err)
				}
			}
		}
		if mc.prepare != nil {
			mc.prepare(t, env, cl, p, on)
		}
		o.Failovers, o.Downs, o.FastFails = cl.stats.Failovers, cl.stats.DownReplies, cl.stats.FastFails
		start, ev0, tx0 = p.Now(), env.EventsProcessed, cl.node.TxMsgs
		if !task {
			snapshot(cl.GetMulti(p, keys), p.Now())
			return
		}
		// The task starts in this very event, as the blocking call would;
		// StartTask's own starter event is the one thing the task engine
		// adds, and it is subtracted below.
		env.StartTask("t", func(tk *sim.Task) {
			cl.GetMultiT(tk, buf, ends, func(items []*Item) {
				snapshot(items, tk.Now())
				tk.End()
			})
		})
	})
	env.Run()
	if task {
		o.Events-- // StartTask's starter
	}
	o.Failovers = cl.stats.Failovers - o.Failovers
	o.Downs = cl.stats.DownReplies - o.Downs
	o.FastFails = cl.stats.FastFails - o.FastFails
	return o, mc.want(on)
}

// TestGetMultiResultShape pins what the slice result means, case by case,
// on both engines: entry i answers keys[i], nil is a miss of any flavour.
func TestGetMultiResultShape(t *testing.T) {
	for _, mc := range multiCases {
		for _, engine := range []string{"proc", "task"} {
			mc, task := mc, engine == "task"
			t.Run(mc.name+"/"+engine, func(t *testing.T) {
				o, want := runMultiCase(t, mc, task)
				if !reflect.DeepEqual(o.Values, want) {
					t.Errorf("result = %q, want %q", o.Values, want)
				}
				if mc.check != nil {
					mc.check(t, o)
				}
			})
		}
	}
}

// TestGetMultiEnginesAgree: on every case of the table, GetMultiT on a task
// and blocking GetMulti (the same body awaited by a process) return the
// same result after the same virtual time, the same number of dispatched
// events, the same wire messages and the same health accounting.
func TestGetMultiEnginesAgree(t *testing.T) {
	for _, mc := range multiCases {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			proc, _ := runMultiCase(t, mc, false)
			task, _ := runMultiCase(t, mc, true)
			if !reflect.DeepEqual(proc, task) {
				t.Errorf("engines disagree:\n proc %+v\n task %+v", proc, task)
			}
		})
	}
}

// TestGetMultiTBorrowEndsAtReturn: the items handed to the continuation
// alias pooled storage — the next multi-get on the same client reuses it.
// Code that keeps an item past its continuation keeps a copy, as this test
// does; the pointer itself must come back scrubbed, not stale.
func TestGetMultiTBorrowEndsAtReturn(t *testing.T) {
	env, cl := simBank(2, 64)
	on := keysByServer(cl, 1)
	keys := []string{on[0][0], on[1][0]}
	buf, ends := flatKeys(keys)
	var kept []*Item
	env.Process("t", func(p *sim.Proc) {
		for _, k := range keys {
			cl.Set(p, k, blob.FromString(k))
		}
		env.StartTask("t", func(tk *sim.Task) {
			cl.GetMultiT(tk, buf, ends, func(items []*Item) {
				kept = append(kept, items...)
				tk.End()
			})
		})
	})
	env.Run()
	for i, it := range kept {
		if it.Key != "" || it.Value.Len() != 0 {
			t.Errorf("item %d still readable after its continuation returned: %q", i, it.Key)
		}
	}
}

// TestGetMultiTLateRepliesAfterCut: both daemons are slow, so a partition
// that lands after the requests arrived but before they are served abandons
// both legs mid-service; every key reads as a miss at the cut instant, and
// the replies that land later — over links healed in the meantime — find
// their frames and legs still intact (poison mode would panic on a use after
// release) and return everything to the pools.
func TestGetMultiTLateRepliesAfterCut(t *testing.T) {
	env, cl := simBank(2, 64)
	on := keysByServer(cl, 2)
	keys := []string{on[0][0], on[1][0], on[0][1], on[1][1]}
	buf, ends := flatKeys(keys)
	net := cl.node.Network()
	net.EnableFaults()
	const cutAfter = time.Millisecond
	var elapsed sim.Duration
	env.Process("t", func(p *sim.Proc) {
		for _, k := range keys {
			cl.Set(p, k, blob.FromString(k))
		}
		for _, s := range cl.servers {
			s.SetSlowdown(1000) // 12 ms of service per two-key batch
		}
		// The partition is over the instant it has aborted the calls in
		// flight, so the reissued multi-get below reaches the daemons.
		env.Defer(cutAfter, func() {
			for _, s := range cl.servers {
				net.CutLink("client", s.node.Name())
				net.HealLink("client", s.node.Name())
			}
		})
		env.StartTask("t", func(tk *sim.Task) {
			round := 0
			var issue func()
			issue = func() {
				t0 := tk.Now()
				cl.GetMultiT(tk, buf, ends, func(items []*Item) {
					if round == 0 {
						elapsed = tk.Now().Sub(t0)
						if n := hitCount(items); n != 0 {
							t.Errorf("abandoned multi-get returned %d items", n)
						}
						// Reissue from inside the continuation while the
						// abandoned requests are still in flight: the second
						// call must not be handed their legs.
						round = 1
						issue()
						return
					}
					if n := hitCount(items); n != len(keys) {
						t.Errorf("second multi-get found %d of %d", n, len(keys))
					}
					tk.End()
				})
			}
			issue()
		})
	})
	env.Run()
	if elapsed != cutAfter {
		t.Errorf("abandoned multi-get took %v, want to end at the cut, %v in", elapsed, cutAfter)
	}
	if cl.Stats().Unreachables != 2 {
		t.Errorf("unreachables = %d, want 2 (one per leg)", cl.Stats().Unreachables)
	}
	if len(cl.legs) != 4 || len(cl.multiOps) != 2 {
		t.Errorf("pools hold %d legs and %d ops after the late replies drained, want 4 and 2",
			len(cl.legs), len(cl.multiOps))
	}
}
