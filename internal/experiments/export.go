package experiments

import (
	"os"
	"path/filepath"
	"strings"

	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
)

// snapshotEpochBase anchors the deterministic build epoch of study
// exports in the paper's data-collection era (mid-2017).
const snapshotEpochBase = 1_500_000_000

// SnapshotEpoch is the build epoch, in unix seconds, that every export
// of the world built from seed stamps on its snapshots. It is a pure
// function of the seed, so re-exporting a world republishes the same
// bytes whichever tool writes them; the seed offset keeps different
// worlds from colliding on a generation id by epoch alone.
func SnapshotEpoch(seed int64) int64 { return snapshotEpochBase + seed }

// WriteSnapshots writes each database to dir as an RGSP snapshot named
// <lower-case name>.rgsnap, stamped with meta, creating dir if needed.
// It returns the paths in dbs order.
func WriteSnapshots(dir string, dbs []*geodb.DB, meta snapshot.Meta) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(dbs))
	for _, db := range dbs {
		path := filepath.Join(dir, strings.ToLower(db.Name())+snapshot.Ext)
		if err := snapshot.WriteFile(path, db, meta); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
