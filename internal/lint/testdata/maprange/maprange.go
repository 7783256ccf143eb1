// Package maprange is an imcalint fixture: map iterations whose order
// leaks into output, returned slices, or registries.
package maprange

import (
	"fmt"
	"io"
	"sort"

	"imca/internal/sim"
)

// Registry stands in for an instrument registry.
type Registry struct{ names []string }

// Register records a name.
func (r *Registry) Register(name string) { r.names = append(r.names, name) }

// PrintAll emits one line per entry in map order.
func PrintAll(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}

// Keys returns the keys in map order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is the sanctioned idiom: collect, sort, then use.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum only aggregates; order cannot matter.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// RegisterAll registers instruments in map order.
func RegisterAll(r *Registry, m map[string]int) {
	for k := range m {
		r.Register(k)
	}
}

// DumpAll writes entries in map order.
func DumpAll(w io.Writer, m map[string]int) {
	for k := range m {
		io.WriteString(w, k)
	}
}

// SleepAll schedules continuations in map order via the task engine.
func SleepAll(t *sim.Task, m map[string]int) {
	for range m {
		t.Sleep(1, func() {})
	}
}

// touch stands in for any helper that advances virtual time for a task.
func touch(t *sim.Task) {}

// TouchAll drives task-engine activity in map order through a helper.
func TouchAll(t *sim.Task, m map[string]int) {
	for range m {
		touch(t)
	}
}

// AwaitAll drives one blocking operation per entry in map order: Await
// hands the process to a task and back, so its order is the simulation's.
func AwaitAll(p *sim.Proc, m map[string]int) {
	for range m {
		p.Await(func(t *sim.Task) { t.End() })
	}
}
