package sim

import "testing"

// TestFree pins the free list's contract: Pop returns frames in reverse
// Push order and nil once empty, clears the slot it vacates, and under
// poison mode — and only then — a frame pushed while already on the list
// panics.
func TestFree(t *testing.T) {
	a, b, c := new(int), new(int), new(int)
	cases := []struct {
		name   string
		poison bool
		push   []*int
		pops   []*int // successive Pop results, after the pushes
		panics bool
	}{
		{"empty list pops nil", false, nil, []*int{nil, nil}, false},
		{"LIFO order", false, []*int{a, b, c}, []*int{c, b, a, nil}, false},
		{"LIFO order under poison", true, []*int{a, b, c}, []*int{c, b, a, nil}, false},
		{"double push unchecked without poison", false, []*int{a, b, a}, []*int{a, b, a, nil}, false},
		{"double push panics under poison", true, []*int{a, b, a}, nil, true},
	}
	defer SetPoison(Poison())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			SetPoison(tc.poison)
			var l Free[int]
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				for _, x := range tc.push {
					l.Push(x)
				}
				return false
			}()
			if panicked != tc.panics {
				t.Fatalf("pushing %d frames panicked: %v, want %v", len(tc.push), panicked, tc.panics)
			}
			for i, want := range tc.pops {
				got := l.Pop()
				if got != want {
					t.Fatalf("pop %d returned %p, want %p", i, got, want)
				}
				if got != nil && l[:len(l)+1][len(l)] != nil {
					t.Fatalf("pop %d left its frame in the backing array", i)
				}
			}
		})
	}
}
