package experiments

import (
	"fmt"
	"math"
)

// tolerance is the one bound of the status rule: a numeric claim reproduces
// when the run is within ±25 % of the paper, |ln(measured/paper)| ≤ ln 1.25.
// No claim has its own; "≈" in an ordering is judged by the same bound.
const tolerance = 1.25

// Claim is one statement about a figure — the paper's, or for an extension
// the expectation it tests — stated once and judged against the run that
// printed it. Its status is computed, never declared: an ordering
// reproduces iff it holds, a numeric claim iff it is near the paper's number.
type Claim struct {
	Quote    string  // the paper's words
	Paper    float64 // the paper's number; 0 for an ordering
	Measured float64 // the run's value of Paper; for an ordering, 1 if it holds and 0 if not
	Text     string  // the measured sentence
	// Why is set only on a claim known to deviate, at some scale: one line
	// citing an entry of EXPERIMENTS.md's Known deviations ("deviation N: …").
	Why string
}

// The Known deviations of EXPERIMENTS.md, as a claim's Why cites them.
const (
	devLustreCold  = "deviation 1: Lustre's cold client fetches a whole 4 KB page, so its tiny reads run near-local"
	devFig9Ceiling = "deviation 2: the single-server ceiling (NoCache, Lustre-1DS) sits lower against the MCD path than the paper's"
	devMissRate    = "deviation 3: a strict-LRU MCD under a cyclic scan either fits or thrashes; there is no small miss rate"
	devMCD4to6     = "deviation 4: past 4 MCDs the stat path is client-bound"
	devBlock8K     = "deviation 5: at 128 K records the 8 K block edges NoCache"
	devLustreWarm  = "deviation 6: at 64 K records, 32 clients, Lustre warm edges IMCa(4MCD)"
	devFig8c       = "deviation 7: at 8 K records one MCD saturates with the server"
	devScale       = "deviation 8: the claim fails at the scales the entry names"
)

// near reports whether a is within the tolerance of b.
func near(a, b float64) bool { return math.Abs(math.Log(a/b)) <= math.Log(tolerance) }

// Reproduced is the status rule.
func (c Claim) Reproduced() bool {
	if c.Paper == 0 {
		return c.Measured != 0
	}
	return near(c.Measured, c.Paper)
}

// String is the line both renderers print where a claim stands.
func (c Claim) String() string {
	status := "UNEXPLAINED"
	if c.Reproduced() {
		status = "reproduced"
	} else if c.Why != "" {
		status = "deviates: " + c.Why
	}
	return fmt.Sprintf("claim: [%s] %s (paper: %s)", status, c.Text, c.Quote)
}

// Scorecard is the line that closes a run: how many of its claims are
// reproduced, deviating and unexplained, and the simulation error
// Σ|ln(measured/paper)| over the numeric ones. A numeric claim whose run is
// not positive makes the error +Inf.
func Scorecard(claims []Claim) string {
	var reproduced, deviating, unexplained, numbers int
	var sum float64
	for _, c := range claims {
		switch {
		case c.Reproduced():
			reproduced++
		case c.Why != "":
			deviating++
		default:
			unexplained++
		}
		if c.Paper != 0 {
			numbers++
			sum += math.Abs(math.Log(max(c.Measured, 0) / c.Paper))
		}
	}
	return fmt.Sprintf("scorecard: %d claims reproduced, %d deviating, %d unexplained; Σ|ln(measured/paper)| = %.3f over %d paper numbers",
		reproduced, deviating, unexplained, sum, numbers)
}

// cell prints a table value as a claim's text quotes it.
func cell(v float64) string {
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// order adds an ordering claim to r: holds is whether the run keeps it. Like
// number, it returns the claim it added, so a declaration can set its Why in
// the same statement.
func (r *Result) order(quote string, holds bool, text string, args ...any) *Claim {
	measured := 0.0
	if holds {
		measured = 1
	}
	return r.number(quote, 0, measured, text, args...)
}

// number adds a numeric claim to r: the paper's number and the run's (or,
// with paper 0, an ordering).
func (r *Result) number(quote string, paper, measured float64, text string, args ...any) *Claim {
	r.Claims = append(r.Claims, Claim{Quote: quote, Paper: paper, Measured: measured, Text: fmt.Sprintf(text, args...)})
	return &r.Claims[len(r.Claims)-1]
}
