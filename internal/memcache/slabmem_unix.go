//go:build unix && !aix

package memcache

import "syscall"

// mapSlabs maps n bytes of anonymous private memory for a store's slab
// pages. The mapping is outside the collected heap: the collector neither
// scans it nor counts it toward its goal, and the kernel backs a page only
// once it is written. It returns nil when the system refuses the mapping.
func mapSlabs(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

// unmapSlabs gives back a mapping mapSlabs made.
func unmapSlabs(b []byte) error { return syscall.Munmap(b) }
