package experiments

import (
	"fmt"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/memcache"
	"imca/internal/nfssim"
)

// How MODEL.md writes a value in each of its units.
func us(d time.Duration) string { return num(float64(d)/float64(time.Microsecond)) + " µs" }
func ms(d time.Duration) string { return num(float64(d)/float64(time.Millisecond)) + " ms" }
func mbps(bps float64) string   { return num(bps/1e6) + " MB/s" }
func nsPerB(ns float64) string  { return num(ns) + " ns/B" }
func num(v float64) string      { return strconv.FormatFloat(v, 'g', -1, 64) }

// size writes n bytes in the largest binary unit that divides it.
func size(n int64) string {
	for _, u := range []struct {
		name  string
		bytes int64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}} {
		if n%u.bytes == 0 {
			return fmt.Sprintf("%d %s", n/u.bytes, u.name)
		}
	}
	return fmt.Sprintf("%d B", n)
}

// count writes n of noun, plural unless n is 1.
func count(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("%d %s", n, noun)
	}
	return fmt.Sprintf("%d %ss", n, noun)
}

// modelValues is every calibrated constant MODEL.md's tables name, keyed by
// the identifier a row's Code column cites, written as its Value cell must
// state it.
var modelValues = map[string]string{
	"fabric.GigE.Latency":          us(fabric.GigE.Latency),
	"fabric.GigE.Bandwidth":        mbps(fabric.GigE.Bandwidth),
	"fabric.IPoIB.Latency":         us(fabric.IPoIB.Latency),
	"fabric.IPoIB.Bandwidth":       mbps(fabric.IPoIB.Bandwidth),
	"fabric.RDMA.Latency":          us(fabric.RDMA.Latency),
	"fabric.RDMA.Bandwidth":        mbps(fabric.RDMA.Bandwidth),
	"fabric.GigE.HostOverhead":     us(fabric.GigE.HostOverhead),
	"fabric.IPoIB.HostOverhead":    us(fabric.IPoIB.HostOverhead),
	"fabric.RDMA.HostOverhead":     us(fabric.RDMA.HostOverhead),
	"fabric.GigE.PerByteCPUNanos":  nsPerB(fabric.GigE.PerByteCPUNanos),
	"fabric.IPoIB.PerByteCPUNanos": nsPerB(fabric.IPoIB.PerByteCPUNanos),
	"fabric.RDMA.PerByteCPUNanos":  nsPerB(fabric.RDMA.PerByteCPUNanos),
	"fabric.HeaderBytes":           size(fabric.HeaderBytes),

	"disk.HighPoint2008.SeekTime":     ms(disk.HighPoint2008.SeekTime),
	"disk.HighPoint2008.TransferRate": mbps(disk.HighPoint2008.TransferRate),
	"disk.HighPointDisks":             count(disk.HighPointDisks, "disk"),
	"disk.HighPointStripe":            size(disk.HighPointStripe),
	"gluster.PageSize":                size(gluster.PageSize),
	"gluster.ReadaheadBytes":          size(gluster.ReadaheadBytes),
	"gluster.MetaRegion":              size(gluster.MetaRegion),

	"gluster.ServerOpCPU":           us(gluster.ServerOpCPU),
	"gluster.ServerIOThreads":       count(gluster.ServerIOThreads, "thread"),
	"gluster.ServerPerByteCPUNanos": nsPerB(gluster.ServerPerByteCPUNanos),
	"gluster.FuseOpCPU":             us(gluster.FuseOpCPU),
	"gluster.FusePerByteCPUNanos":   nsPerB(gluster.FusePerByteCPUNanos),

	"memcache.DaemonThreads":     count(memcache.DaemonThreads, "thread"),
	"memcache.PerKeyServiceTime": us(memcache.PerKeyServiceTime),
	"memcache.PerByteCopyNanos":  nsPerB(memcache.PerByteCopyNanos),
	"memcache.MaxValueLen":       size(memcache.MaxValueLen),
	"memcache.MaxKeyLen":         size(memcache.MaxKeyLen),

	"lustre.MDSOpCPU":           us(lustre.MDSOpCPU),
	"lustre.MDSThreads":         count(lustre.MDSThreads, "thread"),
	"lustre.OSTOpCPU":           us(lustre.OSTOpCPU),
	"lustre.StripeSize":         size(lustre.StripeSize),
	"lustre.ClientPageSize":     size(lustre.ClientPageSize),
	"lustre.ClientOpCPU":        us(lustre.ClientOpCPU),
	"lustre.ClientPerByteNanos": nsPerB(lustre.ClientPerByteNanos),

	"nfssim.OpCPU":   us(nfssim.OpCPU),
	"nfssim.Threads": count(nfssim.Threads, "thread"),
}

// scalingRules is every field of sizes, keyed by the identifier the Scaling
// rules table's Code column cites.
var scalingRules = map[string]scalingRule{
	"sizes.records":    {func(z sizes) int64 { return int64(z.records) }, false},
	"sizes.arrivals":   {func(z sizes) int64 { return int64(z.arrivals) }, false},
	"sizes.latencyMCD": {func(z sizes) int64 { return z.latencyMCD }, true},
	"sizes.mcd":        {func(z sizes) int64 { return z.mcd }, true},
	"sizes.server":     {func(z sizes) int64 { return z.server }, true},
	"sizes.lustre":     {func(z sizes) int64 { return z.lustre }, true},
	"sizes.file":       {func(z sizes) int64 { return z.file }, true},
	"sizes.nfs4G":      {func(z sizes) int64 { return z.nfs4G }, true},
	"sizes.nfs8G":      {func(z sizes) int64 { return z.nfs8G }, true},
	"sizes.stream":     {func(z sizes) int64 { return z.stream }, true},
	"sizes.statFiles":  {func(z sizes) int64 { return int64(z.statFiles) }, false},
	"sizes.smallFiles": {func(z sizes) int64 { return int64(z.smallFiles) }, false},
	"sizes.accesses":   {func(z sizes) int64 { return int64(z.accesses) }, false},
	"sizes.mdFiles":    {func(z sizes) int64 { return int64(z.mdFiles) }, false},
}

// scalingRule reads one field of sizes, a byte size or a count.
type scalingRule struct {
	field func(sizes) int64
	bytes bool
}

// cells is how the Scaling rules table writes r: its value at scale 1, its
// divisor, and its value far beyond any scale run. The divisor is "scale"
// when the field is max(paper/scale, floor) at every power-of-two scale;
// otherwise it lists the runs of equal paper/value, as "1 to scale 2, 4 to
// 16, 16 to 2048, then 64".
func (r scalingRule) cells() (paper, divisor, floor string) {
	const beyond = 1 << 30
	at := func(s int) int64 { return r.field(Options{Scale: s}.sized()) }
	write := func(n int64) string {
		if r.bytes {
			return size(n)
		}
		return strconv.FormatInt(n, 10)
	}
	p, f := at(1), at(beyond)
	byScale := true
	type run struct {
		d  int64
		to int
	}
	var runs []run // paper/value is d up to scale to
	for s := 1; s <= beyond; s *= 2 {
		byScale = byScale && at(s) == max(p/int64(s), f)
		if d, n := p/at(s), len(runs); n > 0 && runs[n-1].d == d {
			runs[n-1].to = s
		} else {
			runs = append(runs, run{d, s})
		}
	}
	if byScale {
		return write(p), "scale", write(f)
	}
	parts := make([]string, len(runs))
	for i, rn := range runs {
		parts[i] = fmt.Sprintf("%d to %d", rn.d, rn.to)
	}
	parts[0] = fmt.Sprintf("%d to scale %d", runs[0].d, runs[0].to)
	parts[len(runs)-1] = fmt.Sprintf("then %d", runs[len(runs)-1].d)
	return write(p), strings.Join(parts, ", "), write(f)
}

// states reports whether cell contains want as a whole quantity: not the
// tail of a longer number, nor followed by more of a number or a unit.
func states(cell, want string) bool {
	for from := 0; ; {
		i := strings.Index(cell[from:], want)
		if i < 0 {
			return false
		}
		i += from
		end := i + len(want)
		prev, _ := utf8.DecodeLastRuneInString(cell[:i])
		next, _ := utf8.DecodeRuneInString(cell[end:])
		if !numeric(prev) && !numeric(next) && next != '/' && !unicode.IsLetter(next) {
			return true
		}
		from = i + 1
	}
}

func numeric(r rune) bool { return unicode.IsDigit(r) || r == '.' }

// TestModelMatchesCode holds MODEL.md to the code. In a constants table
// (first header cell "Constant") each row's Value cell states, in the row's
// unit, the value of every identifier its Code column names. In the Scaling
// rules table (first header cell "Quantity") each row's Paper, Divisor and
// Floor cells are what scalingRule.cells writes for the one field of sizes
// its Code column names. Every identifier a row names is one the test
// knows, every one it knows is named by some row, and every field of sizes
// has a rule.
func TestModelMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../MODEL.md")
	if err != nil {
		t.Fatal(err)
	}
	ident := regexp.MustCompile("`([^`]+)`")
	named := make(map[string]bool)
	var col map[string]int // the current table's columns by header name
	rows := 0
	for n, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			col = nil // a table ends at its first non-row line
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cells[0] == "Constant" || cells[0] == "Quantity": // a table's header
			col = make(map[string]int)
			for i, c := range cells {
				col[c] = i
			}
			need := []string{"Value", "Code"}
			if cells[0] == "Quantity" {
				need = []string{"Paper", "Divisor", "Floor", "Code"}
			}
			for _, c := range need {
				if col[c] == 0 {
					t.Errorf("MODEL.md:%d: table header %q lacks a %s column", n+1, line, c)
				}
			}
			continue
		case strings.HasPrefix(cells[0], "---"), col == nil:
			continue
		}
		rows++
		code := cells[col["Code"]]
		ids := ident.FindAllStringSubmatch(code, -1)
		if len(ids) == 0 && code != "—" {
			t.Errorf("MODEL.md:%d: %q names no identifier (— marks a row with none)", n+1, cells[0])
		}
		for _, m := range ids {
			id := m[1]
			named[id] = true
			if _, scaling := col["Divisor"]; scaling {
				rule, ok := scalingRules[id]
				if !ok {
					t.Errorf("MODEL.md:%d: %q names %s, which scalingRules lacks", n+1, cells[0], id)
					continue
				}
				paper, divisor, floor := rule.cells()
				for _, c := range []struct{ name, want string }{{"Paper", paper}, {"Divisor", divisor}, {"Floor", floor}} {
					if got := cells[col[c.name]]; got != c.want {
						t.Errorf("MODEL.md:%d: %q's %s cell says %q, but sized gives %q", n+1, cells[0], c.name, got, c.want)
					}
				}
				continue
			}
			value := cells[col["Value"]]
			want, ok := modelValues[id]
			switch {
			case !ok:
				t.Errorf("MODEL.md:%d: %q names %s, which modelValues lacks", n+1, cells[0], id)
			case !states(value, want):
				t.Errorf("MODEL.md:%d: %q says %q, but %s is %s", n+1, cells[0], value, id, want)
			}
		}
	}
	if rows == 0 {
		t.Fatal("MODEL.md has no table rows")
	}
	for _, id := range slices.Sorted(maps.Keys(modelValues)) {
		if !named[id] {
			t.Errorf("no MODEL.md row names %s (%s)", id, modelValues[id])
		}
	}
	for _, id := range slices.Sorted(maps.Keys(scalingRules)) {
		if !named[id] {
			t.Errorf("no MODEL.md Scaling rules row names %s", id)
		}
	}
	if n := reflect.TypeOf(sizes{}).NumField(); n != len(scalingRules) {
		t.Errorf("sizes has %d fields, scalingRules %d: each field needs a rule and a MODEL.md row", n, len(scalingRules))
	}
}
