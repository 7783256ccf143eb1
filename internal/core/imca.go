// Package core implements IMCa, the paper's contribution: an InterMediate
// Cache architecture that interposes a bank of MemCached daemons (MCDs)
// between file system clients and the file server.
//
// Two translators cooperate:
//
//   - CMCache (client memory cache) intercepts operations at the GlusterFS
//     client. Stat and Read try the MCD bank first; Create, Delete, Write,
//     and Close pass through untouched. A read that misses any covering
//     block falls back to the server (so cold misses cost MORE than the
//     uncached file system — the paper's stated trade-off).
//
//   - SMCache (server memory cache) hooks the server's completion path: it
//     purges a file's cached entries when it is opened, closed, or deleted,
//     pushes the stat structure at open/stat/write completions, and after
//     reads and writes pushes the covering fixed-size blocks — for writes by
//     re-reading the written span from the file system, because overlapping
//     writes plus the fixed block size make direct write-through impossible.
//
// Data is cached in fixed-size blocks keyed "<abs path>:<block offset>";
// stat structures use "<abs path>:stat". Keys are distributed over the MCD
// bank with libmemcache's CRC32 hash, or round-robin by block number for
// bandwidth experiments. Writes are persistent: they reach the server's
// disk before any cache update, so MCD failures never affect correctness.
package core

import (
	"fmt"
	"strconv"

	"imca/internal/blob"
	"imca/internal/memcache"
)

// Config carries the IMCa tuning knobs shared by both translators.
type Config struct {
	// BlockSize is the fixed cache block size: positive, and at most
	// memcache.MaxItemValueLen (1 MB less a longest key and the item
	// header), the largest block one bank item can hold. NewCMCache and
	// NewSMCache refuse any other (CheckBlockSize). The paper evaluates
	// 256 B, 2 KB (DefaultBlockSize), and 8 KB.
	BlockSize int64
	// Threaded moves SMCache's MCD updates off the request critical path
	// onto a helper process (the paper's proposed optimization for Write
	// latency).
	Threaded bool
	// ClientPopulate makes CMCache itself feed the MCD bank after read
	// misses and writes, instead of relying on a server-side SMCache.
	// This implements the paper's future-work direction of attaching the
	// cache bank to file systems whose servers cannot be modified (e.g.
	// Lustre): coherency still holds for the single-writer patterns the
	// paper evaluates, because writes reach the server before the push,
	// but unlike SMCache there is no purge-on-open from other clients.
	ClientPopulate bool
}

// DefaultBlockSize is the block size the paper settles on for most
// experiments.
const DefaultBlockSize = 2048

// CheckBlockSize reports an error unless bs is a block size one bank item
// can hold, 1 to memcache.MaxItemValueLen bytes.
func CheckBlockSize(bs int64) error {
	if bs <= 0 || bs > memcache.MaxItemValueLen {
		return fmt.Errorf("core: block size %d outside 1..%d, the largest block one bank item holds", bs, memcache.MaxItemValueLen)
	}
	return nil
}

// appendStatKey appends the MCD key for path's stat structure,
// "<path>:stat", to dst.
func appendStatKey(dst []byte, path string) []byte {
	return append(append(dst, path...), ":stat"...)
}

// appendBlockKey appends the MCD key for the data block at the given
// aligned byte offset, "<path>:<off>", to dst.
func appendBlockKey(dst []byte, path string, blockOff int64) []byte {
	dst = append(dst, path...)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, blockOff, 10)
}

// alignSpan widens [off, off+size) to block boundaries, returning the
// covering aligned span.
func alignSpan(off, size, bs int64) (alignedOff, alignedSize int64) {
	if size <= 0 {
		return off - off%bs, 0
	}
	start := off - off%bs
	end := off + size
	if rem := end % bs; rem != 0 {
		end += bs - rem
	}
	return start, end - start
}

// cutRange slices the caller's [off, off+size) out of data, an aligned read
// that starts at alignedOff; a range starting at or past the data's end is
// an empty read, one running past it a short one.
func cutRange(data blob.Blob, alignedOff, off, size int64) blob.Blob {
	lo := off - alignedOff
	if lo >= data.Len() {
		return blob.Blob{}
	}
	hi := lo + size
	if hi > data.Len() {
		hi = data.Len()
	}
	return data.Slice(lo, hi)
}

// blockKeys is the scratch a read or a push builds its span's block keys in:
// the aligned block offsets covering the range, and the keys back to back in
// buf, key i ending at ends[i]. All of it keeps its capacity across the
// owning frame's lives. The keys are lent, never kept: the bank client
// copies them into its pooled requests, and a daemon looks them up in place
// or copies one it stores into its store's key pages, so neither a read nor
// a push costs a string.
type blockKeys struct {
	offsets []int64
	buf     []byte
	ends    []int
}

// build fills the scratch for the blocks covering [off, off+size) of path.
func (bk *blockKeys) build(path string, off, size, bs int64) {
	start, span := alignSpan(off, size, bs)
	offsets, buf, ends := bk.offsets[:0], bk.buf[:0], bk.ends[:0]
	for bo := start; bo < start+span; bo += bs {
		offsets = append(offsets, bo)
		buf = appendBlockKey(buf, path, bo)
		ends = append(ends, len(buf))
	}
	bk.offsets, bk.buf, bk.ends = offsets, buf, ends
}

// key returns key i, a borrow of buf.
func (bk *blockKeys) key(i int) []byte {
	from := 0
	if i > 0 {
		from = bk.ends[i-1]
	}
	return bk.buf[from:bk.ends[i]]
}
