package dbload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbcsv"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/ipx"
)

func sample(t *testing.T, name string) *geodb.DB {
	t.Helper()
	b := geodb.NewBuilder(name)
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), geodb.Record{
		Country: "US", City: "Dallas",
		Coord: geo.Coordinate{Lat: 32.77, Lon: -96.8}, Resolution: geodb.ResolutionCity,
	})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSniffIgnoresExtension is the point of the package: files open as
// what their bytes say, whatever they are called.
func TestSniffIgnoresExtension(t *testing.T) {
	dir := t.TempDir()
	db := sample(t, "mislabeled")
	// A snapshot wearing a .csv name and a CSV dump wearing a snapshot name.
	snapAsCSV := filepath.Join(dir, "x.csv")
	if err := snapshot.WriteFile(snapAsCSV, db, snapshot.Meta{BuildEpoch: 5}); err != nil {
		t.Fatal(err)
	}
	csvAsSnap := filepath.Join(dir, "y"+snapshot.Ext)
	if err := dbcsv.WriteFile(csvAsSnap, db); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, name string
		want       Format
	}{
		{snapAsCSV, "mislabeled", Snap},
		{csvAsSnap, "y", CSV}, // CSV has no embedded name
	} {
		got, err := SniffFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("SniffFile(%s) = %s, want %s", filepath.Base(tc.path), got, tc.want)
		}
		l, err := Open(tc.path)
		if err != nil {
			t.Fatalf("Open(%s): %v", tc.path, err)
		}
		if l.Format != tc.want || l.DB.Name() != tc.name {
			t.Errorf("Open(%s) = format %s name %q", filepath.Base(tc.path), l.Format, l.DB.Name())
		}
		l.Close()
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	dir := t.TempDir()
	db := sample(t, "rt")
	addr := ipx.MustParseAddr("10.0.1.2")
	want, _ := db.Lookup(addr)
	// Only the snapshot carries the writer's meta.
	for _, tc := range []struct {
		file, src string
		format    Format
		epoch     int64
	}{
		{"db.csv", "csv", CSV, 0},
		{"db" + snapshot.Ext, "snapshot", Snap, 9},
	} {
		p := filepath.Join(dir, tc.file)
		if err := WriteFile(p, db, snapshot.Meta{BuildEpoch: 9, SourceFormat: "study"}); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		l, err := Open(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if l.Format != tc.format {
			t.Errorf("%s: written as %s, want %s", tc.file, l.Format, tc.format)
		}
		got, ok := l.DB.Lookup(addr)
		if !ok || got.Country != want.Country || got.City != want.City {
			t.Errorf("%s: Lookup = %+v,%v", tc.file, got, ok)
		}
		if m := l.DB.Meta(); m.SourceFormat != tc.src || m.BuildEpoch != tc.epoch {
			t.Errorf("%s: meta = %+v, want source %q epoch %d", tc.file, m, tc.src, tc.epoch)
		}
		l.Close()
	}
	// CSV keeps the file-derived name (it has no embedded one).
	l, err := Open(filepath.Join(dir, "db.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.DB.Name() != "db" {
		t.Errorf("csv name = %q", l.DB.Name())
	}
}

// TestLoadFileOrDir covers the binaries' -db argument: one file of
// either format, or a directory mixing both, loaded in path order.
func TestLoadFileOrDir(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"alpha.csv", "bravo" + snapshot.Ext} {
		name := strings.TrimSuffix(file, filepath.Ext(file))
		if err := WriteFile(filepath.Join(dir, file), sample(t, name), snapshot.Meta{BuildEpoch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dbs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 || dbs[0].Name() != "alpha" || dbs[1].Name() != "bravo" {
		t.Fatalf("Load(dir) = %d databases", len(dbs))
	}
	dbs, err = Load(filepath.Join(dir, "bravo"+snapshot.Ext))
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 1 || dbs[0].Name() != "bravo" {
		t.Fatalf("Load(file) = %d databases", len(dbs))
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty directory should error")
	}
	if _, err := Load(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}

func TestOpenDirClosesOnError(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "good"+snapshot.Ext), sample(t, "good"), snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zbad"+snapshot.Ext), []byte("RGSPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("corrupt member should fail the directory load")
	}
}
