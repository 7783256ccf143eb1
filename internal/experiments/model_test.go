package experiments

import (
	"fmt"
	"maps"
	"os"
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

// TestModelMatchesCode holds MODEL.md to the code: each table row's Value
// cell states, in the row's unit, the value of every identifier its Code
// column names, every identifier a row names is one the test knows, and
// every one it knows is named by some row.
func TestModelMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../MODEL.md")
	if err != nil {
		t.Fatal(err)
	}
	ident := regexp.MustCompile("`([^`]+)`")
	named := make(map[string]bool)
	var valueCol, codeCol int
	rows := 0
	for n, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			valueCol, codeCol = 0, 0 // a table ends at its first non-row line
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cells[0] == "Constant": // a table's header
			for i, c := range cells {
				switch c {
				case "Value":
					valueCol = i
				case "Code":
					codeCol = i
				}
			}
			if valueCol == 0 || codeCol == 0 {
				t.Errorf("MODEL.md:%d: table header %q lacks a Value or a Code column", n+1, line)
			}
			continue
		case strings.HasPrefix(cells[0], "---"), valueCol == 0 || codeCol == 0:
			continue
		}
		rows++
		value, code := cells[valueCol], cells[codeCol]
		ids := ident.FindAllStringSubmatch(code, -1)
		if len(ids) == 0 && code != "—" {
			t.Errorf("MODEL.md:%d: %q names no identifier (— marks a row with none)", n+1, cells[0])
		}
		for _, m := range ids {
			id := m[1]
			named[id] = true
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
}
