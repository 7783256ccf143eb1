// Command imcafsh is an interactive shell onto a simulated IMCa cluster:
// each command runs as a file system operation in virtual time and reports
// how long the modeled cluster took. It is the exploratory complement to
// cmd/imcabench — poke the cache, watch what hits and what misses.
//
// Usage:
//
//	imcafsh [-clients 1] [-mcds 2] [-block 2048] [-flight 1024]
//
// Commands:
//
//	create PATH              create and open a file
//	open PATH                open an existing file
//	close PATH               close the file's descriptor
//	write PATH OFF SIZE      write SIZE synthetic bytes at OFF
//	read PATH OFF SIZE       read (reports whether the bank served it)
//	stat PATH                stat (cache-first)
//	rm PATH                  delete
//	truncate PATH SIZE       set the file's size (cached blocks are purged)
//	ls PATH                  list a directory
//	flush                    flush every MCD (cold bank)
//	fault CMD ...            inject failures (fault help for the list)
//	stats                    translator and bank counters
//	telemetry [SUBSTR]       full instrument registry (optionally filtered)
//	openmetrics              registry snapshot in OpenMetrics text format
//	hists                    latency histogram summaries (p50/p95/p99)
//	flight                   dump the flight recorder (newest -flight records)
//	trace [on|off]           toggle per-command latency tracing
//	breakdown                per-layer aggregate over traced commands
//	time                     current virtual time
//	help | quit
//
// With tracing on, each command's report is followed by its per-layer
// latency decomposition (where the operation's virtual time went: FUSE,
// CMCache, the MCD round trip, the server, the disk). Tracing costs no
// virtual time, so timings are identical with it on or off.
//
// The fault subcommands drive the internal/fault injector: immediate
// faults ("fault crash mcd0") land before the next command; scheduled ones
// ("fault at 5ms crash mcd0") arm a virtual-clock timer that fires while a
// later command's operation is in flight — the way to watch a daemon die
// mid-read. Start the shell with -eject to give the clients failover.
//
// The flight recorder (-flight N, default 1024 records) keeps a bounded
// ring of structured events — layer forwards, ejections, probes,
// readmissions, replica failovers, fault arm/fire — and "flight" dumps it
// oldest-first, so after an experiment goes sideways you can read back
// what the cluster actually did.
//
// An operation the file system refuses (a missing file, an offset or size
// no file can hold) is reported as that command's error and the session
// goes on. A command that panics — a bug in the shell or the model — is
// reported too, but ends the session with exit status 2: the panic may
// have stranded a simulated process mid-operation, and the state every
// later command would run on is lost.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

type shell struct {
	c     *cluster.Cluster
	fs    gluster.FS
	fds   map[string]gluster.FD
	col   *optrace.Collector
	reg   *telemetry.Registry
	inj   *fault.Injector
	fr    *flight.Recorder
	trace bool
	out   io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the command stream, the two output streams, and the exit code as
// the return value.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcafsh", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clients = fs.Int("clients", 1, "client nodes")
		mcds    = fs.Int("mcds", 2, "memcached daemons (0 = plain GlusterFS)")
		block   = fs.Int64("block", 2048, "IMCa block size")
		eject   = fs.Int("eject", 0, "eject an MCD after this many consecutive client-side failures (0 = no failover)")
		flightN = fs.Int("flight", 1024, "flight-recorder capacity in records (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	c := cluster.New(cluster.Options{
		Clients: *clients, MCDs: *mcds, MCDMemBytes: 256 << 20, BlockSize: *block,
		EjectAfter: *eject,
	})
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	sh := &shell{c: c, fs: c.Mounts[0].FS, fds: make(map[string]gluster.FD), col: optrace.NewCollector(), reg: reg, out: stdout}
	sh.inj = fault.NewInjector(c)
	sh.inj.Register(reg, "fault")
	if *flightN > 0 {
		sh.fr = flight.New(*flightN)
		c.SetFlight(sh.fr)
		sh.inj.SetFlight(sh.fr)
	}

	fmt.Fprintf(stdout, "imcafsh: %d client(s), %d MCD(s), block %d — type 'help'\n", *clients, *mcds, *block)
	return sh.loop(stdin, stderr)
}

// loop runs commands from stdin until quit or end of input (exit code 0),
// or until one panics (2; see the package comment).
func (sh *shell) loop(stdin io.Reader, stderr io.Writer) int {
	in := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(sh.out, "imca> ")
		if !in.Scan() {
			fmt.Fprintln(sh.out)
			return 0
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return 0
		}
		if sh.dispatch(strings.Fields(line)) {
			fmt.Fprintln(stderr, "imcafsh: the command panicked and the simulation state is lost; exiting")
			return 2
		}
	}
}

// inSim runs fn as a simulated process and returns the virtual time it
// took; with tracing on, the whole command becomes one traced operation.
func (sh *shell) inSim(name string, fn func(p *sim.Proc)) sim.Duration {
	var took sim.Duration
	sh.c.Env.Process("shell", func(p *sim.Proc) {
		start := p.Now()
		if sh.trace {
			sh.col.Begin(p, name)
			root := optrace.StartSpan(p, optrace.LayerOp, name)
			fn(p)
			root.End(p)
			sh.col.End(p)
		} else {
			fn(p)
		}
		took = p.Now().Sub(start)
	})
	sh.c.Env.Run()
	return took
}

// printTrace shows where the last traced command's virtual time went.
func (sh *shell) printTrace() {
	if !sh.trace || sh.col.Last == nil {
		return
	}
	for _, lt := range sh.col.Last.ByLayer() {
		fmt.Fprintf(sh.out, "  %-9s %12v\n", lt.Layer, lt.Self)
	}
}

// dispatch runs one command. A panic — the command's own, or one in the body
// of the process it ran, which surfaces from Env.Run — is printed as the
// command's error and reported as lost.
func (sh *shell) dispatch(args []string) (lost bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(sh.out, "error: %v\n", r)
			lost = true
		}
	}()
	cmd := args[0]
	switch cmd {
	case "help":
		fmt.Fprintln(sh.out, "create|open|close|rm|stat|ls PATH; write|read PATH OFF SIZE; truncate PATH SIZE; flush; fault CMD; stats; telemetry [SUBSTR]; openmetrics; hists; flight; trace [on|off]; breakdown; time; help; quit")
	case "trace":
		switch {
		case len(args) == 1:
			sh.trace = !sh.trace
		case args[1] == "on":
			sh.trace = true
		case args[1] == "off":
			sh.trace = false
		default:
			fmt.Fprintln(sh.out, "usage: trace [on|off]")
			return
		}
		fmt.Fprintf(sh.out, "tracing %v\n", map[bool]string{true: "on", false: "off"}[sh.trace])
	case "breakdown":
		sh.col.Breakdown().Report(sh.out)
	case "time":
		fmt.Fprintf(sh.out, "virtual time: %v\n", sim.Duration(sh.c.Env.Now()))
	case "flush":
		for _, m := range sh.c.MCDs {
			m.Store().FlushAll()
		}
		fmt.Fprintln(sh.out, "bank flushed")
	case "fault":
		sh.faultCmd(args[1:])
	case "stats":
		sh.printStats()
	case "telemetry":
		substr := ""
		if len(args) > 1 {
			substr = args[1]
		}
		sh.reg.DumpFilter(sh.out, substr)
	case "openmetrics":
		telemetry.WriteOpenMetrics(sh.out, sh.reg)
	case "hists":
		sh.reg.DumpHists(sh.out)
	case "flight":
		if sh.fr == nil {
			fmt.Fprintln(sh.out, "flight recorder off (restart with -flight N)")
			return
		}
		sh.fr.Dump(sh.out)
	case "create", "open", "close", "rm", "stat", "ls":
		if len(args) != 2 {
			fmt.Fprintf(sh.out, "usage: %s PATH\n", cmd)
			return
		}
		sh.pathCmd(cmd, args[1])
	case "write", "read":
		if len(args) != 4 {
			fmt.Fprintf(sh.out, "usage: %s PATH OFF SIZE\n", cmd)
			return
		}
		off, err1 := strconv.ParseInt(args[2], 10, 64)
		size, err2 := strconv.ParseInt(args[3], 10, 64)
		if err1 != nil || err2 != nil || size <= 0 || off < 0 {
			fmt.Fprintln(sh.out, "bad OFF/SIZE")
			return
		}
		sh.ioCmd(cmd, args[1], off, size)
	case "truncate":
		if len(args) != 3 {
			fmt.Fprintln(sh.out, "usage: truncate PATH SIZE")
			return
		}
		size, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			fmt.Fprintln(sh.out, "bad SIZE")
			return
		}
		took := sh.inSim(cmd, func(p *sim.Proc) { err = sh.fs.Truncate(p, args[1], size) })
		sh.report(cmd, took, err)
		sh.printTrace()
	default:
		fmt.Fprintf(sh.out, "unknown command %q (try help)\n", cmd)
	}
	return false
}

func (sh *shell) fdFor(path string) (gluster.FD, bool) {
	fd, ok := sh.fds[path]
	return fd, ok
}

func (sh *shell) pathCmd(cmd, path string) {
	var err error
	took := sh.inSim(cmd, func(p *sim.Proc) {
		switch cmd {
		case "create":
			var fd gluster.FD
			if fd, err = sh.fs.Create(p, path); err == nil {
				sh.fds[path] = fd
			}
		case "open":
			var fd gluster.FD
			if fd, err = sh.fs.Open(p, path); err == nil {
				sh.fds[path] = fd
			}
		case "close":
			fd, ok := sh.fdFor(path)
			if !ok {
				err = gluster.ErrBadFD
				return
			}
			if err = sh.fs.Close(p, fd); err == nil {
				delete(sh.fds, path)
			}
		case "rm":
			err = sh.fs.Unlink(p, path)
		case "stat":
			var st *gluster.Stat
			if st, err = sh.fs.Stat(p, path); err == nil {
				fmt.Fprintf(sh.out, "  ino=%d size=%d dir=%v mtime=%v\n", st.Ino, st.Size, st.IsDir, sim.Duration(st.Mtime))
			}
		case "ls":
			var names []string
			if names, err = sh.fs.Readdir(p, path); err == nil {
				for _, n := range names {
					fmt.Fprintf(sh.out, "  %s\n", n)
				}
			}
		}
	})
	sh.report(cmd, took, err)
	sh.printTrace()
}

func (sh *shell) ioCmd(cmd, path string, off, size int64) {
	fd, ok := sh.fdFor(path)
	if !ok {
		fmt.Fprintln(sh.out, "error: not open (use create/open first)")
		return
	}
	var err error
	var hit string
	took := sh.inSim(cmd, func(p *sim.Proc) {
		switch cmd {
		case "write":
			_, err = sh.fs.Write(p, fd, off, blob.Synthetic(uint64(len(path))+1, off, size))
		case "read":
			var before uint64
			cm := sh.c.Mounts[0].CMCache
			if cm != nil {
				before = cm.Stats.ReadMisses
			}
			var data blob.Blob
			data, err = sh.fs.Read(p, fd, off, size)
			if err == nil {
				hit = fmt.Sprintf(", %d bytes", data.Len())
				if cm != nil {
					if cm.Stats.ReadMisses > before {
						hit += ", MISS (server)"
					} else {
						hit += ", HIT (bank)"
					}
				}
			}
		}
	})
	sh.report(cmd+hit, took, err)
	sh.printTrace()
}

func (sh *shell) report(what string, took sim.Duration, err error) {
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(sh.out, "ok: %s in %v (virtual)\n", what, took)
}

func (sh *shell) printStats() {
	if cm := sh.c.Mounts[0].CMCache; cm != nil {
		fmt.Fprintf(sh.out, "cmcache: stat %d hit / %d miss; read %d hit / %d miss; blocks %d/%d hit\n",
			cm.Stats.StatHits, cm.Stats.StatMisses,
			cm.Stats.ReadHits, cm.Stats.ReadMisses,
			cm.Stats.BlockHits, cm.Stats.BlockLookups)
	}
	if sm := sh.c.SMCache; sm != nil {
		fmt.Fprintf(sh.out, "smcache: %d block pushes, %d stat pushes, %d purges, %d read-backs\n",
			sm.Stats.BlockPushes, sm.Stats.StatPushes, sm.Stats.Purges, sm.Stats.ReadBacks)
	}
	bank := sh.c.BankStats()
	fmt.Fprintf(sh.out, "bank:    %d items, %d bytes; get %d (%d hit / %d miss); set %d; evictions %d\n",
		bank.CurrItems, bank.Bytes, bank.CmdGet, bank.GetHits, bank.GetMisses, bank.CmdSet, bank.Evictions)
	fmt.Fprintf(sh.out, "server:  ops %v\n", sh.c.Server.Ops)
}

const faultUsage = `fault subcommands:
  fault crash MCD               kill a daemon (contents lost) e.g. fault crash mcd0
  fault recover MCD             restart a crashed daemon (empty)
  fault cut NODE NODE           partition a node pair            e.g. fault cut client0 mcd0
  fault heal NODE NODE          restore a cut or degraded pair
  fault degrade NODE NODE L B   scale a pair: latency xL, bandwidth xB
  fault slow BRICK FACTOR       stretch the brick's disk accesses (1 = healthy)
  fault fail BRICK              refuse brick requests (storage intact)
  fault restore BRICK           bring the brick daemon back
  fault partition GROUP GROUP   cut every link between two "+"-joined node
                                groups e.g. fault partition client0 mcd0+mcd1
  fault unpartition GROUP GROUP restore every link between the groups
  fault flap NODE NODE DUR N    cut/heal the pair for N cycles of DUR each
  fault gray MCD FACTOR         stretch a daemon's service time (1 = healthy)
  fault at DUR CMD ...          schedule any of the above DUR of virtual time
                                from now (fires inside later commands' ops)
  fault status                  current fault state and injector counters`

// parseFaultEvent turns "crash mcd0"-style argument lists into a plan
// event with offset zero.
func parseFaultEvent(args []string) (fault.Event, error) {
	bad := func(format string, a ...interface{}) (fault.Event, error) {
		return fault.Event{}, fmt.Errorf(format, a...)
	}
	if len(args) == 0 {
		return bad("missing fault kind")
	}
	switch cmd := args[0]; cmd {
	case "crash", "recover":
		if len(args) != 2 {
			return bad("usage: fault %s MCD", cmd)
		}
		k := fault.MCDCrash
		if cmd == "recover" {
			k = fault.MCDRecover
		}
		return fault.Event{Kind: k, Target: args[1]}, nil
	case "cut", "heal":
		if len(args) != 3 {
			return bad("usage: fault %s NODE NODE", cmd)
		}
		k := fault.LinkCut
		if cmd == "heal" {
			k = fault.LinkHeal
		}
		return fault.Event{Kind: k, Target: args[1], Peer: args[2]}, nil
	case "degrade":
		if len(args) != 5 {
			return bad("usage: fault degrade NODE NODE LATENCY BANDWIDTH")
		}
		lat, err1 := strconv.ParseFloat(args[3], 64)
		bw, err2 := strconv.ParseFloat(args[4], 64)
		if err1 != nil || err2 != nil {
			return bad("bad degrade factors %q %q", args[3], args[4])
		}
		return fault.Event{Kind: fault.LinkDegrade, Target: args[1], Peer: args[2], Latency: lat, Bandwidth: bw}, nil
	case "slow":
		if len(args) != 3 {
			return bad("usage: fault slow BRICK FACTOR")
		}
		f, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return bad("bad slowdown factor %q", args[2])
		}
		return fault.Event{Kind: fault.DiskSlow, Target: args[1], Factor: f}, nil
	case "fail", "restore":
		if len(args) != 2 {
			return bad("usage: fault %s BRICK", cmd)
		}
		k := fault.BrickFail
		if cmd == "restore" {
			k = fault.BrickRecover
		}
		return fault.Event{Kind: k, Target: args[1]}, nil
	case "partition", "unpartition":
		if len(args) != 3 {
			return bad("usage: fault %s GROUP GROUP (groups are \"+\"-joined node lists)", cmd)
		}
		k := fault.Partition
		if cmd == "unpartition" {
			k = fault.PartitionHeal
		}
		return fault.Event{Kind: k, Target: args[1], Peer: args[2]}, nil
	case "flap":
		if len(args) != 5 {
			return bad("usage: fault flap NODE NODE PERIOD COUNT")
		}
		period, err := time.ParseDuration(args[3])
		if err != nil || period <= 0 {
			return bad("bad flap period %q", args[3])
		}
		count, err := strconv.Atoi(args[4])
		if err != nil || count < 1 {
			return bad("bad flap count %q", args[4])
		}
		return fault.Event{Kind: fault.LinkFlap, Target: args[1], Peer: args[2],
			Period: sim.Duration(period), Count: count}, nil
	case "gray":
		if len(args) != 3 {
			return bad("usage: fault gray MCD FACTOR")
		}
		f, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return bad("bad gray factor %q", args[2])
		}
		return fault.Event{Kind: fault.GrayNode, Target: args[1], Factor: f}, nil
	default:
		return bad("unknown fault %q", cmd)
	}
}

func (sh *shell) faultCmd(args []string) {
	if len(args) == 0 || args[0] == "help" {
		fmt.Fprintln(sh.out, faultUsage)
		return
	}
	if args[0] == "status" {
		sh.faultStatus()
		return
	}
	immediate := true
	var at sim.Duration
	if args[0] == "at" {
		if len(args) < 3 {
			fmt.Fprintln(sh.out, "usage: fault at DUR CMD ...")
			return
		}
		d, err := time.ParseDuration(args[1])
		if err != nil || d < 0 {
			fmt.Fprintf(sh.out, "bad duration %q\n", args[1])
			return
		}
		at, immediate, args = d, false, args[2:]
	}
	ev, err := parseFaultEvent(args)
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	ev.At = at
	if err := sh.inj.Arm(&fault.Plan{Name: "imcafsh", Events: []fault.Event{ev}}); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	if immediate {
		sh.c.Env.Run() // fire the zero-offset timer now
		fmt.Fprintf(sh.out, "fault applied: %s\n", ev)
	} else {
		fmt.Fprintf(sh.out, "fault armed: %s (fires during later commands)\n", ev)
	}
}

func (sh *shell) faultStatus() {
	fmt.Fprintf(sh.out, "injector: %d armed, %d fired\n", sh.inj.Armed(), sh.inj.Fired())
	for _, m := range sh.c.MCDs {
		state := "up"
		if m.Down() {
			state = "DOWN"
		}
		fmt.Fprintf(sh.out, "  %-12s %s\n", m.Node().Name(), state)
	}
	for _, b := range sh.c.Bricks {
		state := "up"
		if b.Server.Down() {
			state = "DOWN"
		}
		slow := b.Array.Disks()[0].Slowdown()
		extra := ""
		if slow > 1 {
			extra = fmt.Sprintf(", disk %gx slow", slow)
		}
		fmt.Fprintf(sh.out, "  %-12s %s%s\n", b.Node.Name(), state, extra)
	}
	for i, m := range sh.c.Mounts {
		if m.CMCache == nil {
			continue
		}
		cl := m.CMCache.Bank()
		var ejected []string
		for j := range sh.c.MCDs {
			if cl.Ejected(j) {
				ejected = append(ejected, sh.c.MCDs[j].Node().Name())
			}
		}
		if len(ejected) > 0 {
			fmt.Fprintf(sh.out, "  client%d has ejected: %s\n", i, strings.Join(ejected, ", "))
		}
	}
	bank := sh.c.BankStats()
	if bank.Ejects+bank.FastFails+bank.Unreachables+bank.DownReplies > 0 {
		fmt.Fprintf(sh.out, "  failover: %d ejects, %d fast-fails, %d probes, %d readmits, %d unreachable, %d down replies\n",
			bank.Ejects, bank.FastFails, bank.Probes, bank.Readmits, bank.Unreachables, bank.DownReplies)
	}
}
