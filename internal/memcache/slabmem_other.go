//go:build !unix || aix

package memcache

// mapSlabs maps nothing here (AIX's syscall package has no MAP_ANON), so a
// store's slab pages are allocated on the heap as they are granted.
func mapSlabs(int) []byte { return nil }

func unmapSlabs([]byte) error { return nil }
