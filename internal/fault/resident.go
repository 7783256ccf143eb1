package fault

import (
	"fmt"
	"strconv"
	"strings"

	"imca/internal/cluster"
)

// AuditResident checks the bank's resident set against the file server, the
// invariant purge correctness rests on. Every data key "<path>:<offset>"
// resident in any MCD must be recorded by a brick's SMCache for its path, so
// the next open, close, truncate or unlink of the path deletes it; and it
// must start inside the file as the brick holds it now, since a truncate
// purges what it cut off. No key at all — data or stat — of a path no brick
// holds may be resident: an unlinked file leaves nothing a re-created one
// could be served, and descriptors still open on it no longer feed the
// bank. Run it once the
// simulation has drained; like AuditReplicas it is side-effect-free and
// returns one line per violation, nil for a deployment without IMCa.
func AuditResident(c *cluster.Cluster) []string {
	bricks := c.Bricks
	if len(bricks) == 0 {
		bricks = []*cluster.Brick{{Posix: c.Posix, SMCache: c.SMCache}}
	}
	if bricks[0].SMCache == nil {
		return nil
	}
	var violations []string
	for i, s := range c.MCDs {
		for _, key := range s.Store().Keys() {
			cut := strings.LastIndexByte(key, ':')
			if cut < 0 {
				continue
			}
			path := key[:cut]
			off, err := strconv.ParseInt(key[cut+1:], 10, 64)
			data := err == nil
			var size int64
			exists, recorded := false, false
			for _, b := range bricks {
				if sz, ok := b.Posix.Size(path); ok {
					size, exists = sz, true
				}
				recorded = recorded || (data && b.SMCache.Recorded(path, off))
			}
			switch {
			case !exists:
				violations = append(violations, fmt.Sprintf("key %q resident on mcd%d, but %s no longer exists", key, i, path))
			case data && !recorded:
				violations = append(violations, fmt.Sprintf("data key %q resident on mcd%d is not recorded for %s: no later purge deletes it", key, i, path))
			case data && off >= size:
				violations = append(violations, fmt.Sprintf("data key %q resident on mcd%d lies past %s's end of file at %d", key, i, path, size))
			}
		}
	}
	return violations
}
