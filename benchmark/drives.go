package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/pagecache"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// A drive loops over one exported function of one layer and reports host
// ns per call (and, where named, allocations per call): the layer's cost
// in isolation, to set beside its share of a whole workload.

// runner performs about n calls and reports the host time they took and
// how many it made; building the fixture is not timed.
type runner func(n int) (time.Duration, int)

type drive struct {
	name      string // the ns-per-call metric
	allocName string // the allocs-per-call metric, if reported
	build     func() runner
}

var drives = []drive{
	// Task.Sleep + heap pop + continuation call, 64 live tasks
	{name: "drive.sim.task_dispatch_ns", build: dispatchDrive(64)},
	// the same with 16,384 pending timers: the deep-heap case
	{name: "drive.sim.task_dispatch_16k_ns", build: dispatchDrive(16384)},
	// Proc.Sleep: schedule + goroutine park/wake handshake
	{name: "drive.sim.proc_switch_ns", build: procSwitchDrive},
	// Resource.UseT, 64 tasks contending for 8 units
	{name: "drive.sim.resource_use_ns", build: resourceDrive},
	// Binding.CallT echo round trip over IPoIB, batches of 64
	{name: "drive.fabric.call_ns", allocName: "drive.fabric.call_allocs", build: fabricCallDrive},
	// Store.Get hit, 10,000 keys of 100 B
	{name: "drive.memcache.store_get_ns", build: storeGetDrive},
	// Store.Set replacing a resident 100 B item
	{name: "drive.memcache.store_set_ns", build: storeSetDrive},
	// Store.Set of a new 2 KB item into a full 4 MB store: one LRU eviction each
	{name: "drive.memcache.store_set_evict_ns", build: storeSetEvictDrive},
	// ServeConn over an in-memory stream: parse get, look up, encode a 100 B reply
	{name: "drive.memcache.text_get_ns", build: textDrive(false)},
	// ServeConn over an in-memory stream: parse set, store 100 B, reply
	{name: "drive.memcache.text_set_ns", build: textDrive(true)},
	// ServeBinaryConn over an in-memory stream: one GET of 100 B
	{name: "drive.memcache.binary_get_ns", build: binaryGetDrive},
	// SimClient.GetT hit against a SimServer across the simulated fabric
	{name: "drive.memcache.simclient_get_ns", build: simClientGetDrive},
	// CRC32Selector.Pick over 4 servers
	{name: "drive.memcache.pick_crc32_ns", build: pickDrive(memcache.CRC32Selector{})},
	// KetamaSelector.Pick over 4 servers
	{name: "drive.memcache.pick_ketama_ns", build: pickDrive(memcache.NewKetamaSelector())},
	// Posix.ReadT of 4 KB from a page-cache-resident file
	{name: "drive.gluster.posix_read_ns", build: posixDrive(false)},
	// Posix.WriteT of 4 KB into an existing file
	{name: "drive.gluster.posix_write_ns", build: posixDrive(true)},
	// Cache.Lookup of one resident 4 KB page
	{name: "drive.pagecache.lookup_ns", build: pagecacheLookupDrive},
	// Cache.Insert of one new page into a full cache: one eviction each
	{name: "drive.pagecache.insert_ns", build: pagecacheInsertDrive},
	// Disk.AccessT of 4 KB, sequential
	{name: "drive.disk.access_ns", build: diskDrive},
	// Blob.Slice of 4 KB out of a 1 GB synthetic blob
	{name: "drive.blob.slice_ns", build: blobSliceDrive},
	// Synthetic(…, 64 KB).Bytes(): materialize one record
	{name: "drive.blob.synthetic_ns", build: blobSyntheticDrive},
	// telemetry.Hist.Observe
	{name: "drive.telemetry.hist_observe_ns", build: histDrive},
	// one traced op holding one span: Collector.Begin, StartSpan, Span.End, Collector.End
	{name: "drive.optrace.span_ns", build: spanDrive},
}

// sink keeps results alive so the compiler cannot drop a driven call.
var sink int64

// runDrives measures every drive for at least minDur each.
func runDrives(minDur time.Duration, v values, tr *tracer) {
	for _, d := range drives {
		sp := tr.start(d.name)
		ns, allocs := measureDrive(d, minDur)
		sp.end()
		v[d.name] = ns
		if d.allocName != "" {
			v[d.allocName] = allocs
		}
	}
}

func measureDrive(d drive, minDur time.Duration) (nsPerCall, allocsPerCall float64) {
	run := d.build()
	n := 64
	el, calls := run(n)
	for el < minDur/10 && n < 1<<28 {
		n *= 4
		el, calls = run(n)
	}
	n = int(float64(calls)*float64(minDur)/float64(el)*1.05) + 1
	m0 := mallocs()
	el, calls = run(n)
	m1 := mallocs()
	return float64(el) / float64(calls), float64(m1-m0) / float64(calls)
}

func timeRun(env *sim.Env) time.Duration {
	t0 := now()
	env.Run()
	return since(t0)
}

// chain starts one task that makes n sequential calls of step, each
// handed the continuation to run when it completes. A step that completes
// without yielding to the kernel (a page-cache hit costs no virtual time)
// calls next from inside itself; the loop then continues instead of
// recursing, so the stack stays flat however long the chain.
func chain(env *sim.Env, n int, step func(t *sim.Task, i int, next func())) {
	env.StartTask("drive", func(t *sim.Task) {
		i := 0
		looping, completed := false, false
		var next func()
		next = func() {
			if looping {
				completed = true
				return
			}
			looping = true
			for completed = true; completed && i < n; {
				completed = false
				i++
				step(t, i-1, next)
			}
			looping = false
			if completed {
				t.End()
			}
		}
		next()
	})
}

func dispatchDrive(tasks int) func() runner {
	return func() runner {
		return func(n int) (time.Duration, int) {
			env := sim.NewEnv()
			per := n/tasks + 1
			for i := 0; i < tasks; i++ {
				// Distinct periods keep the heap mixed instead of
				// marching in lock step.
				period := sim.Duration(1000 + i)
				chain(env, per, func(t *sim.Task, _ int, next func()) { t.Sleep(period, next) })
			}
			return timeRun(env), per * tasks
		}
	}
}

func procSwitchDrive() runner {
	return func(n int) (time.Duration, int) {
		env := sim.NewEnv()
		env.Process("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		return timeRun(env), n
	}
}

func resourceDrive() runner {
	return func(n int) (time.Duration, int) {
		env := sim.NewEnv()
		res := sim.NewResource(env, 8)
		const tasks = 64
		per := n/tasks + 1
		for i := 0; i < tasks; i++ {
			chain(env, per, func(t *sim.Task, _ int, next func()) { res.UseT(t, time.Microsecond, next) })
		}
		return timeRun(env), per * tasks
	}
}

func fabricCallDrive() runner {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	a, b := net.NewNode("a", 8), net.NewNode("b", 8)
	b.HandleT("echo", func(_ *sim.Task, _ *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) { respond(req) })
	bind := a.Bind(b, "echo")
	ct := env.ContextTask("drive")
	k := func(_ fabric.Msg, err error) {
		if err != nil {
			panic(fmt.Sprintf("drive: echo: %v", err))
		}
		sink++
	}
	return func(n int) (time.Duration, int) {
		const batch = 64
		rounds := n/batch + 1
		t0 := now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < batch; i++ {
				bind.CallT(ct, fabric.Bytes(64), k)
			}
			env.Run()
		}
		return since(t0), rounds * batch
	}
}

func driveKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/bench/file%07d:stat", i)
	}
	return keys
}

func filledStore(limit int64, keys []string, value []byte) *memcache.Store {
	st := memcache.NewStore(limit, func() int64 { return 0 })
	for _, k := range keys {
		if err := st.Set(&memcache.Item{Key: k, Value: blob.FromBytes(value)}); err != nil {
			panic(fmt.Sprintf("drive: fill store: %v", err))
		}
	}
	return st
}

func storeGetDrive() runner {
	keys := driveKeys(10000)
	st := filledStore(64<<20, keys, valueOf(0))
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			it, err := st.Get(keys[i%len(keys)])
			if err != nil {
				panic(fmt.Sprintf("drive: store get: %v", err))
			}
			sink += it.Value.Len()
		}
		return since(t0), n
	}
}

func storeSetLoop(st *memcache.Store, keys []string, value []byte) runner {
	next := 0
	return func(n int) (time.Duration, int) {
		item := &memcache.Item{Value: blob.FromBytes(value)}
		t0 := now()
		for i := 0; i < n; i++ {
			item.Key = keys[next%len(keys)]
			next++
			if err := st.Set(item); err != nil {
				panic(fmt.Sprintf("drive: store set: %v", err))
			}
		}
		return since(t0), n
	}
}

func storeSetDrive() runner {
	keys := driveKeys(10000)
	return storeSetLoop(filledStore(64<<20, keys, valueOf(0)), keys, valueOf(0))
}

func storeSetEvictDrive() runner {
	// 4 MB holds under 2,000 of these items, so cycling 65,536 keys
	// makes every set a new key whose chunk comes from an eviction.
	keys := driveKeys(65536)
	st := filledStore(4<<20, keys[:4096], valueOf(2))
	return storeSetLoop(st, keys, valueOf(2))
}

// repeatStream is an in-memory connection: reads yield block a fixed
// number of times, writes are discarded.
type repeatStream struct {
	block []byte
	pos   int
	left  int
}

func (s *repeatStream) Read(p []byte) (int, error) {
	if s.pos == len(s.block) {
		if s.left == 0 {
			return 0, io.EOF
		}
		s.left--
		s.pos = 0
	}
	n := copy(p, s.block[s.pos:])
	s.pos += n
	return n, nil
}

func (s *repeatStream) Write(p []byte) (int, error) { return len(p), nil }

const streamBatch = 256 // requests per block

// serveDrive times serve over a stream of about n requests, block holding
// streamBatch of them.
func serveDrive(block []byte, serve func(io.ReadWriter) error) runner {
	return func(n int) (time.Duration, int) {
		rounds := n/streamBatch + 1
		s := &repeatStream{block: block, pos: len(block), left: rounds}
		t0 := now()
		if err := serve(s); err != nil && !errors.Is(err, io.EOF) {
			panic(fmt.Sprintf("drive: serve: %v", err))
		}
		return since(t0), rounds * streamBatch
	}
}

func textDrive(set bool) func() runner {
	return func() runner {
		keys := driveKeys(streamBatch)
		st := filledStore(64<<20, keys, valueOf(0))
		var block bytes.Buffer
		for _, k := range keys {
			if set {
				fmt.Fprintf(&block, "set %s 0 0 %d\r\n%s\r\n", k, len(valueOf(0)), valueOf(0))
			} else {
				fmt.Fprintf(&block, "get %s\r\n", k)
			}
		}
		return serveDrive(block.Bytes(), func(rw io.ReadWriter) error { return memcache.ServeConn(st, rw) })
	}
}

func binaryGetDrive() runner {
	keys := driveKeys(streamBatch)
	st := filledStore(64<<20, keys, valueOf(0))
	var block bytes.Buffer
	for _, k := range keys {
		var h [24]byte
		h[0] = 0x80 // request magic; opcode 0 is GET
		binary.BigEndian.PutUint16(h[2:], uint16(len(k)))
		binary.BigEndian.PutUint32(h[8:], uint32(len(k)))
		block.Write(h[:])
		block.WriteString(k)
	}
	return serveDrive(block.Bytes(), func(rw io.ReadWriter) error { return memcache.ServeBinaryConn(st, rw) })
}

func simClientGetDrive() runner {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srv := memcache.NewSimServer(net.NewNode("mcd0", 8), 64<<20)
	client := memcache.NewSimClient(net.NewNode("client0", 8), []*memcache.SimServer{srv})
	keys := driveKeys(1024)
	for _, k := range keys {
		if err := srv.Store().Set(&memcache.Item{Key: k, Value: blob.FromBytes(valueOf(0))}); err != nil {
			panic(fmt.Sprintf("drive: preset: %v", err))
		}
	}
	return func(n int) (time.Duration, int) {
		chain(env, n, func(t *sim.Task, i int, next func()) {
			client.GetT(t, keys[i%len(keys)], func(_ *memcache.Item, hit bool) {
				if !hit {
					panic("drive: simclient get missed")
				}
				next()
			})
		})
		return timeRun(env), n
	}
}

func pickDrive(sel memcache.Selector) func() runner {
	return func() runner {
		keys := driveKeys(1024)
		return func(n int) (time.Duration, int) {
			t0 := now()
			for i := 0; i < n; i++ {
				sink += int64(sel.Pick(keys[i%len(keys)], 4))
			}
			return since(t0), n
		}
	}
}

func posixDrive(write bool) func() runner {
	return func() runner {
		const fileSize, rec = 16 << 20, 4096
		env := sim.NewEnv()
		arr := disk.NewArray(env, 8, 1<<20, disk.HighPoint2008)
		px := gluster.NewPosix(env, gluster.PosixConfig{Dev: arr, CacheBytes: 256 << 20})
		var fd gluster.FD
		env.StartTask("fill", func(t *sim.Task) {
			px.CreateT(t, "/drive", func(f gluster.FD, err error) {
				if err != nil {
					panic(fmt.Sprintf("drive: create: %v", err))
				}
				fd = f
				px.WriteT(t, fd, 0, blob.Synthetic(1, 0, fileSize), func(_ int64, err error) {
					if err != nil {
						panic(fmt.Sprintf("drive: fill: %v", err))
					}
					t.End()
				})
			})
		})
		env.Run()
		return func(n int) (time.Duration, int) {
			chain(env, n, func(t *sim.Task, i int, next func()) {
				off := int64(i) * rec % fileSize
				if write {
					px.WriteT(t, fd, off, blob.Synthetic(1, off, rec), func(_ int64, err error) {
						if err != nil {
							panic(fmt.Sprintf("drive: posix write: %v", err))
						}
						next()
					})
					return
				}
				px.ReadT(t, fd, off, rec, func(b blob.Blob, err error) {
					if err != nil || b.Len() != rec {
						panic(fmt.Sprintf("drive: posix read %d bytes: %v", b.Len(), err))
					}
					next()
				})
			})
			return timeRun(env), n
		}
	}
}

func pagecacheLookupDrive() runner {
	const pages = 16384
	c := pagecache.New(pages*4096, 4096)
	c.Insert(1, 0, pages*4096)
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			sink += int64(len(c.Lookup(1, int64(i%pages)*4096, 4096)))
		}
		return since(t0), n
	}
}

func pagecacheInsertDrive() runner {
	c := pagecache.New(4<<20, 4096)
	c.Insert(1, 0, 4<<20)
	page := int64(4 << 20 / 4096)
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			c.Insert(1, page*4096, 4096)
			page++
		}
		return since(t0), n
	}
}

func diskDrive() runner {
	env := sim.NewEnv()
	d := disk.New(env, disk.HighPoint2008)
	return func(n int) (time.Duration, int) {
		chain(env, n, func(t *sim.Task, i int, next func()) { d.AccessT(t, int64(i)*4096, 4096, false, next) })
		return timeRun(env), n
	}
}

func blobSliceDrive() runner {
	b := blob.Synthetic(1, 0, 1<<30)
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			off := int64(i) % (1 << 20)
			sink += b.Slice(off, off+4096).Len()
		}
		return since(t0), n
	}
}

func blobSyntheticDrive() runner {
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			sink += int64(len(blob.Synthetic(1, int64(i)*scanRecord, scanRecord).Bytes()))
		}
		return since(t0), n
	}
}

func histDrive() runner {
	h := telemetry.NewRegistry().Hist("drive")
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			h.Observe(sim.Duration(i&0xffff) * time.Microsecond)
		}
		return since(t0), n
	}
}

func spanDrive() runner {
	env := sim.NewEnv()
	ct := env.ContextTask("drive")
	col := optrace.NewCollector()
	return func(n int) (time.Duration, int) {
		t0 := now()
		for i := 0; i < n; i++ {
			col.Begin(ct, "read")
			optrace.StartSpan(ct, optrace.LayerFuse, "read").End(ct)
			col.End(ct)
		}
		return since(t0), n
	}
}
