package sim

// Free is a LIFO free list of pooled frames: Pop hands back the frame Push
// stored last, so a frame's scratch buffers are reused in a fixed order and
// allocation counts are reproducible. Each owner keeps its own list (figure
// cells run on parallel goroutines) and builds a frame itself when Pop
// returns nil. Being a slice, a list still answers len and indexing.
type Free[T any] []*T

// poison is the one debug switch of every pool; see SetPoison.
var poison bool

// SetPoison toggles the pools' use-after-release detector. While it is on,
// Push panics on a frame already on its list (a linear scan), the fabric
// stamps recycled call frames and checks the stamp at every step, and the
// memcache client scrubs the keys of a recycled key list. It is for tests:
// a release bug fails loudly instead of corrupting a later call.
func SetPoison(on bool) { poison = on }

// Poison reports whether poison mode is on.
func Poison() bool { return poison }

// Pop removes and returns the frame pushed last, or nil if l is empty. The
// vacated slot is cleared so the backing array does not keep it alive.
func (l *Free[T]) Pop() (x *T) {
	if n := len(*l) - 1; n >= 0 {
		x = (*l)[n]
		(*l)[n] = nil
		*l = (*l)[:n]
	}
	return x
}

// Push returns x to the list.
func (l *Free[T]) Push(x *T) {
	if poison {
		for _, y := range *l {
			if y == x {
				panic("sim: frame released twice onto its free list")
			}
		}
	}
	*l = append(*l, x)
}
