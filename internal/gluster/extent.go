package gluster

import (
	"slices"
	"sort"

	"imca/internal/blob"
)

// extent is a contiguous run of written file data.
type extent struct {
	off  int64
	data blob.Blob
}

func (e extent) end() int64 { return e.off + e.data.Len() }

// extentMap stores a file's contents as sorted, non-overlapping extents.
// Unwritten gaps read as zeros. Synthetic blobs keep huge simulated files
// cheap: a 1 GB sequentially-written file is a single extent.
type extentMap struct {
	exts []extent
}

// write inserts data at off, replacing any overlapped content. The extents
// it touches become one, spliced into the slice in place: an append or an
// overwrite allocates nothing here, and a new extent only the slice's
// amortised growth.
func (m *extentMap) write(off int64, data blob.Blob) {
	if data.Len() == 0 {
		return
	}
	end := off + data.Len()
	// Locate the first extent whose end is beyond our start.
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
	j, merged := i, extent{off, data}
	switch {
	case i < len(m.exts) && m.exts[i].off < off:
		// Keep the left remainder of a partially-overlapped extent.
		e := m.exts[i]
		merged = extent{e.off, blob.Concat(e.data.Slice(0, off-e.off), data)}
	case i > 0 && m.exts[i-1].end() == off:
		// Coalesce with the previous extent when contiguous (sequential writes).
		i--
		merged = extent{m.exts[i].off, blob.Concat(m.exts[i].data, data)}
	}
	// Skip all extents fully covered; keep the right remainder of the one
	// straddling our end.
	for ; j < len(m.exts) && m.exts[j].off < end; j++ {
		if e := m.exts[j]; e.end() > end {
			merged.data = blob.Concat(merged.data, e.data.Slice(end-e.off, e.data.Len()))
		}
	}
	m.exts = slices.Replace(m.exts, i, j, merged)
}

// read returns the contents of [off, off+size), with zeros in the gaps.
// scratch collects the pieces; a pooled caller passes a slice that keeps its
// capacity.
func (m *extentMap) read(scratch *[]blob.Blob, off, size int64) blob.Blob {
	if size <= 0 {
		return blob.Blob{}
	}
	end := off + size
	parts := (*scratch)[:0]
	pos := off
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
	for ; i < len(m.exts) && m.exts[i].off < end; i++ {
		e := m.exts[i]
		if e.off > pos {
			parts = append(parts, blob.Zeros(e.off-pos))
			pos = e.off
		}
		lo := pos - e.off
		hi := e.data.Len()
		if e.end() > end {
			hi = end - e.off
		}
		parts = append(parts, e.data.Slice(lo, hi))
		pos = e.off + hi
	}
	if pos < end {
		parts = append(parts, blob.Zeros(end-pos))
	}
	*scratch = parts
	return blob.Concat(parts...)
}

// truncate discards content at or beyond size.
func (m *extentMap) truncate(size int64) {
	var out []extent
	for _, e := range m.exts {
		switch {
		case e.end() <= size:
			out = append(out, e)
		case e.off < size:
			out = append(out, extent{e.off, e.data.Slice(0, size-e.off)})
		}
	}
	m.exts = out
}

// extentCount reports the number of stored extents (for tests).
func (m *extentMap) extentCount() int { return len(m.exts) }
