package lint

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// The baseline file is the analyzer's burn-down list: findings that are
// known, accepted for now, and tracked toward zero rather than suppressed
// line by line in the source. Each entry is one finding in its printed
// form, "file:line: [check] message". Matching ignores the line number —
// unrelated edits move code without changing what the finding is about —
// and is count-aware: N identical entries absorb at most N identical
// findings. An entry matching nothing is reported as a stale finding, so
// the file can never shrink silently; regenerating it (WriteBaseline, or
// imcalint -fix-baseline) is the only way to drop entries, which makes
// every burn-down step an explicit diff in review.

// baselineEntry is one parsed baseline line.
type baselineEntry struct {
	srcLine int // line in the baseline file, for stale reports
	file    string
	check   string
	msg     string
	used    int // findings absorbed so far
	count   int // identical entries folded together
}

func baselineKey(file, check, msg string) string {
	return file + "\x00" + check + "\x00" + msg
}

// baselineLineRE splits "file:line: [check] message".
var baselineLineRE = regexp.MustCompile(`^(.*):(\d+): \[([a-z]+)\] (.*)$`)

// readBaseline parses the baseline file at path. A missing file is an
// empty baseline; a malformed line is an error (a typo must not silently
// stop absorbing its finding).
func readBaseline(path string) (map[string]*baselineEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*baselineEntry{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	entries := make(map[string]*baselineEntry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := baselineLineRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("lint: %s:%d: malformed baseline entry (want \"file:line: [check] message\")", path, lineNo)
		}
		file, check, msg := m[1], m[3], m[4]
		if !contains(Checks, check) {
			return nil, fmt.Errorf("lint: %s:%d: unknown check %q in baseline entry", path, lineNo, check)
		}
		key := baselineKey(file, check, msg)
		if e, ok := entries[key]; ok {
			e.count++
		} else {
			entries[key] = &baselineEntry{srcLine: lineNo, file: file, check: check, msg: msg, count: 1}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// applyBaseline drops findings matching baseline entries and reports
// entries that matched nothing as stale. Suppression bookkeeping findings
// ("suppress") and staleness reports themselves are never baselined: a
// broken suppression must always surface.
func applyBaseline(findings []Finding, entries map[string]*baselineEntry, baselinePath string) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		if contains(Checks, f.Check) {
			if e, ok := entries[baselineKey(f.Pos.Filename, f.Check, f.Msg)]; ok && e.used < e.count {
				e.used++
				continue
			}
		}
		kept = append(kept, f)
	}
	var stale []*baselineEntry
	for _, e := range entries {
		if e.used < e.count {
			stale = append(stale, e)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].srcLine < stale[j].srcLine })
	for _, e := range stale {
		extra := ""
		if n := e.count - e.used; n > 1 {
			extra = fmt.Sprintf(" (%d copies)", n)
		}
		kept = append(kept, Finding{
			Pos:   positionAt(baselinePath, e.srcLine),
			Check: "baseline",
			Msg: fmt.Sprintf("stale baseline entry%s for %s [%s] %q matches no finding — regenerate with imcalint -fix-baseline",
				extra, e.file, e.check, e.msg),
		})
	}
	return kept
}

// WriteBaseline runs the analysis without a baseline and writes every
// finding of the eight checks to path, sorted, one printed finding per
// line. Suppression bookkeeping findings are excluded — a malformed or
// unused suppression is a bug in the exception list, not a burn-down
// item — and must be fixed before a baseline can be recorded.
func WriteBaseline(root string, patterns []string, cfg *Config, path string) (int, error) {
	bare := *cfg
	bare.BaselinePath = ""
	findings, err := Run(root, patterns, &bare)
	if err != nil {
		return 0, err
	}
	var b strings.Builder
	b.WriteString("# imcalint baseline — known findings tracked for burn-down.\n")
	b.WriteString("# Matching ignores line numbers; regenerate with: go run ./cmd/imcalint -fix-baseline ./...\n")
	n := 0
	for _, f := range findings {
		if !contains(Checks, f.Check) {
			return 0, fmt.Errorf("lint: cannot baseline %s (fix the suppression instead)", f)
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
		n++
	}
	return n, os.WriteFile(resolvePath(root, path), []byte(b.String()), 0o644)
}
