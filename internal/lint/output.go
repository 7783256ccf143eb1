package lint

import (
	"encoding/json"
	"io"
)

// Machine-readable finding encodings: a flat JSON array for scripting and
// SARIF 2.1.0 for GitHub code-scanning annotations. Both render the same
// findings Run returned, in the same deterministic order, so the three
// output forms (text, JSON, SARIF) of one run always agree.

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col,omitempty"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// WriteJSON writes findings as a JSON array, one object per finding.
func WriteJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, len(findings))
	for i, f := range findings {
		out[i] = jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Check: f.Check, Msg: f.Msg,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// checkHelp is the one-line rule description published in SARIF rule
// metadata, keyed by check name. The two bookkeeping pseudo-checks are
// included so their findings annotate too.
var checkHelp = map[string]string{
	"wallclock":     "simulated code must use the virtual clock, not time.Now/Since/Sleep",
	"rand":          "randomness must flow from internal/xrand's seeded generators",
	"maprange":      "map iteration order must not leak into output, returns, registration, or simulated activity",
	"nogoroutine":   "simulated code is single-threaded; concurrency belongs to sim.Chan/sim.Event",
	"tickpurity":    "tick observers must never schedule or advance the virtual clock",
	"allocfree":     "annotated hot paths must not reach heap-allocating constructs",
	"instrcomplete": "hot-path layers must register their instruments; flight record kinds must be declared constants",
	"errdrop":       "module-internal errors and completion callbacks must not be silently dropped",
	"suppress":      "//imcalint:allow annotations must be well-formed and cover a real finding",
	"baseline":      "lint.baseline entries must match a finding; regenerate to shrink the baseline",
}

// SARIF 2.1.0, minimally: one run, one rule per check, one result per
// finding. Structs stay local — the schema is the interface.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string       `json:"id"`
	ShortDesc sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes findings as a SARIF 2.1.0 log suitable for GitHub
// code scanning. Rules are emitted for every check so annotations carry
// their invariant's description even when a run is clean.
func WriteSARIF(w io.Writer, findings []Finding) error {
	var rules []sarifRule
	for _, name := range Checks {
		rules = append(rules, sarifRule{ID: name, ShortDesc: sarifMessage{Text: checkHelp[name]}})
	}
	for _, name := range []string{"suppress", "baseline"} {
		rules = append(rules, sarifRule{ID: name, ShortDesc: sarifMessage{Text: checkHelp[name]}})
	}
	results := make([]sarifResult, len(findings))
	for i, f := range findings {
		line := f.Pos.Line
		if line < 1 {
			line = 1 // SARIF requires a positive line
		}
		results[i] = sarifResult{
			RuleID:  f.Check,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.Pos.Filename},
					Region:           sarifRegion{StartLine: line, StartColumn: f.Pos.Column},
				},
			}},
		}
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "imcalint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
