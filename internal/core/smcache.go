package core

import (
	"sort"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SMCacheStats counts the server translator's cache maintenance work.
type SMCacheStats struct {
	// BlockPushes counts data blocks sent to the MCD bank; StatPushes
	// counts stat-structure updates; Purges counts keys deleted.
	BlockPushes uint64
	StatPushes  uint64
	Purges      uint64
	// ReadBacks counts the extra file-system reads issued after writes
	// to regenerate the covering aligned blocks.
	ReadBacks uint64
}

// SMCache is the server-side IMCa translator. It wraps the server's
// storage stack (its child, typically Posix) and mirrors completed
// operations into the MCD bank: stat structures at open/stat/write, data
// blocks after reads and writes. Open/close/delete purge the file's
// entries.
type SMCache struct {
	env   *sim.Env
	child gluster.FS
	mcd   *memcache.SimClient
	cfg   Config

	fdPaths map[gluster.FD]string
	// pushed tracks which block keys each path currently has in the MCD
	// bank, so purges delete exactly the resident keys.
	pushed map[string]map[int64]struct{}
	// skeys interns stat keys for the push/purge paths; shared with the
	// deployment's CMCaches via ShareStatKeys.
	skeys *KeyInterner
	// readOps and pushes pool the task engine's per-read and per-push
	// frames (see smcachetask.go, pushtask.go).
	readOps []*smReadOp
	pushes  pushPool

	Stats SMCacheStats
}

var _ gluster.FS = (*SMCache)(nil)

// NewSMCache wraps child with the server translator. mcd must be a client
// on the server's own node — its traffic models the extra server-side load
// the paper attributes to IMCa.
func NewSMCache(env *sim.Env, child gluster.FS, mcd *memcache.SimClient, cfg Config) *SMCache {
	s := &SMCache{
		env:     env,
		child:   child,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		pushed:  make(map[string]map[int64]struct{}),
		skeys:   NewKeyInterner(),
	}
	s.pushes = pushPool{mcd: mcd, landed: s.blockLanded}
	return s
}

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (s *SMCache) ShareStatKeys(in *KeyInterner) { s.skeys = in }

// Child returns the wrapped storage stack.
func (s *SMCache) Child() gluster.FS { return s.child }

// Bank returns the MCD bank client (for stats inspection).
func (s *SMCache) Bank() *memcache.SimClient { return s.mcd }

// purgeData deletes the data blocks recorded for path, returning how many
// keys it removed. The stat entry stays valid (open/close do not change
// file contents' metadata beyond what the fresh stat push provides).
func (s *SMCache) purgeData(p *sim.Proc, path string) int {
	// Delete in sorted block order: each delete is a simulated RPC, so
	// map-order iteration would reorder bank traffic between runs.
	blocks := make([]int64, 0, len(s.pushed[path]))
	for bo := range s.pushed[path] {
		blocks = append(blocks, bo)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, bo := range blocks {
		s.mcd.Delete(p, blockKey(path, bo))
		s.Stats.Purges++
	}
	delete(s.pushed, path)
	return len(blocks)
}

// purgeAll additionally removes the stat entry — used for deletes and
// truncates, where a stale stat would be a false positive.
func (s *SMCache) purgeAll(p *sim.Proc, path string) int {
	s.mcd.Delete(p, s.skeys.get(path))
	s.Stats.Purges++
	return 1 + s.purgeData(p, path)
}

// setPurged annotates a span with the number of purged keys.
func setPurged(sp *optrace.Span, n int) {
	if n > 0 {
		sp.SetAttrInt("purged", int64(n))
	}
}

// pushStat stores a file's stat structure in the MCD bank.
func (s *SMCache) pushStat(p *sim.Proc, st *gluster.Stat) {
	_ = s.mcd.Set(p, s.skeys.get(st.Path), encodeStat(st))
	s.Stats.StatPushes++
}

// pushBlocks splits data (starting at the aligned offset alignedOff) into
// fixed-size blocks and stores each in the MCD bank.
func (s *SMCache) pushBlocks(p *sim.Proc, path string, alignedOff int64, data blob.Blob) {
	bs := s.cfg.blockSize()
	set := s.pushed[path]
	if set == nil {
		set = make(map[int64]struct{})
		s.pushed[path] = set
	}
	for pos := int64(0); pos < data.Len(); pos += bs {
		end := pos + bs
		if end > data.Len() {
			end = data.Len()
		}
		bo := alignedOff + pos
		_ = s.mcd.Set(p, blockKey(path, bo), data.Slice(pos, end))
		set[bo] = struct{}{}
		s.Stats.BlockPushes++
	}
}

// deferIf runs fn inline, or on a helper process when Threaded mode is on
// (removing the MCD update from the request's critical path).
func (s *SMCache) deferIf(p *sim.Proc, name string, fn func(q *sim.Proc)) {
	if s.cfg.Threaded {
		s.env.Process(name, fn)
		return
	}
	fn(p)
}

// Create implements gluster.FS.
func (s *SMCache) Create(p *sim.Proc, path string) (gluster.FD, error) {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "create")
	defer sp.End(p)
	fd, err := s.child.Create(p, path)
	if err != nil {
		return fd, err
	}
	s.fdPaths[fd] = path
	setPurged(sp, s.purgeData(p, path)) // a re-created path must not serve stale blocks
	if st, serr := s.child.Stat(p, path); serr == nil {
		s.pushStat(p, st)
	}
	return fd, nil
}

// Open implements gluster.FS: the MCDs are purged of data for the file,
// then the fresh stat structure is pushed (paper §4.3.2 and §4.2).
func (s *SMCache) Open(p *sim.Proc, path string) (gluster.FD, error) {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "open")
	defer sp.End(p)
	fd, err := s.child.Open(p, path)
	if err != nil {
		return fd, err
	}
	s.fdPaths[fd] = path
	setPurged(sp, s.purgeData(p, path))
	if st, serr := s.child.Stat(p, path); serr == nil {
		s.pushStat(p, st)
	}
	return fd, nil
}

// Close implements gluster.FS: SMCache discards the file's data (not its
// stat entry) from the MCDs when the close arrives.
func (s *SMCache) Close(p *sim.Proc, fd gluster.FD) error {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "close")
	defer sp.End(p)
	if path, ok := s.fdPaths[fd]; ok {
		setPurged(sp, s.purgeData(p, path))
		delete(s.fdPaths, fd)
	}
	return s.child.Close(p, fd)
}

// Read implements gluster.FS. The read is widened to block alignment so
// the completed data can be fed to the MCDs as whole blocks; the client's
// requested range is sliced out of the aligned result.
func (s *SMCache) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "read")
	defer sp.End(p)
	path, tracked := s.fdPaths[fd]
	if !tracked || size <= 0 {
		return s.child.Read(p, fd, off, size)
	}
	alignedOff, alignedSize := alignSpan(off, size, s.cfg.blockSize())
	data, err := s.child.Read(p, fd, alignedOff, alignedSize)
	if err != nil {
		return blob.Blob{}, err
	}
	s.deferIf(p, "smcache-read-push", func(q *sim.Proc) {
		s.pushBlocks(q, path, alignedOff, data)
	})
	return cutRange(data, alignedOff, off, size), nil
}

// Write implements gluster.FS. The write goes to the file system first
// (persistence), then SMCache re-reads the covering aligned span and feeds
// those blocks plus the updated stat to the MCDs. Overlapping writes and
// the fixed block size are why the written buffer cannot be pushed
// directly (paper §4.3.2). In Threaded mode the read-back and pushes leave
// the critical path.
func (s *SMCache) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "write")
	defer sp.End(p)
	path, tracked := s.fdPaths[fd]
	// The pre-write size decides whether this write grows the file past a
	// partially-filled tail block, whose cached copy would otherwise keep
	// claiming end-of-file.
	oldSize := int64(-1)
	if tracked {
		if st, serr := s.child.Stat(p, path); serr == nil {
			oldSize = st.Size
		}
	}
	n, err := s.child.Write(p, fd, off, data)
	if err != nil {
		return n, err
	}
	if !tracked || n == 0 {
		return n, err
	}
	bs := s.cfg.blockSize()
	alignedOff, alignedSize := alignSpan(off, n, bs)
	s.deferIf(p, "smcache-write-push", func(q *sim.Proc) {
		s.writeBack(q, fd, path, alignedOff, alignedSize, oldSize, off, n, bs)
	})
	return n, nil
}

// Stat implements gluster.FS, feeding the completed stat structure to the
// MCDs so later client stats hit the cache.
func (s *SMCache) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "stat")
	defer sp.End(p)
	st, err := s.child.Stat(p, path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir {
		s.deferIf(p, "smcache-stat-push", func(q *sim.Proc) {
			s.pushStat(q, st)
		})
	}
	return st, nil
}

// Unlink implements gluster.FS: the file's cache entries are removed so
// clients cannot see false positives for a deleted file (paper §4.2).
func (s *SMCache) Unlink(p *sim.Proc, path string) error {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "unlink")
	defer sp.End(p)
	if err := s.child.Unlink(p, path); err != nil {
		return err
	}
	setPurged(sp, s.purgeAll(p, path))
	return nil
}

// Mkdir implements gluster.FS.
func (s *SMCache) Mkdir(p *sim.Proc, path string) error { return s.child.Mkdir(p, path) }

// Readdir implements gluster.FS.
func (s *SMCache) Readdir(p *sim.Proc, path string) ([]string, error) {
	return s.child.Readdir(p, path)
}

// Truncate implements gluster.FS, purging cached blocks that may now lie
// past end of file.
func (s *SMCache) Truncate(p *sim.Proc, path string, size int64) error {
	sp := optrace.StartSpan(p, optrace.LayerSMCache, "truncate")
	defer sp.End(p)
	if err := s.child.Truncate(p, path, size); err != nil {
		return err
	}
	setPurged(sp, s.purgeAll(p, path))
	if st, serr := s.child.Stat(p, path); serr == nil {
		s.pushStat(p, st)
	}
	return nil
}
