package parallel

import (
	"sync/atomic"
	"testing"

	"imca/internal/sim"
)

func TestMapOrderMatchesSerial(t *testing.T) {
	fn := func(i int) int { return i * i }
	serial := Map(1, 100, fn)
	for _, w := range []int{2, 4, 7, 100, 1000} {
		got := Map(w, 100, fn)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: len %d, want %d", w, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d: got[%d] = %d, want %d", w, i, got[i], serial[i])
			}
		}
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		const n = 500
		counts := make([]atomic.Int32, n)
		Do(w, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestDoZeroAndOne(t *testing.T) {
	ran := false
	Do(4, 0, func(i int) { ran = true })
	if ran {
		t.Error("Do with n=0 ran the function")
	}
	var got int
	Do(4, 1, func(i int) { got = i + 1 })
	if got != 1 {
		t.Error("Do with n=1 did not run the function")
	}
}

func TestDoPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want \"boom\"", r)
		}
	}()
	Do(4, 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestDoPropagatesSimProcessPanic: a panic in the body of a simulated
// process surfaces from Env.Run on the worker that called it, so Do
// re-raises it like any other — it used to kill the binary from the
// process's own goroutine, where no recover of Do's could reach it.
func TestDoPropagatesSimProcessPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom in a process" {
			t.Errorf("recovered %v, want \"boom in a process\"", r)
		}
	}()
	Do(4, 16, func(i int) {
		env := sim.NewEnv()
		env.Process("point", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i))
			if i == 7 {
				panic("boom in a process")
			}
		})
		env.Run()
	})
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 {
		t.Error("Workers(0) < 1")
	}
	if Workers(-5) < 1 {
		t.Error("Workers(-5) < 1")
	}
}
