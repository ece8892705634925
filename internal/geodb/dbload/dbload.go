// Package dbload is the one loader every binary shares: it opens a
// geolocation database in either of the repo's on-disk formats — CSV
// dump or RGSP snapshot — dispatching on magic bytes rather than file
// extension, so a renamed artifact still opens as what it is. It also
// centralizes the matching write dispatch and the file-or-directory
// load the binaries use.
package dbload

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbcsv"
	"routergeo/internal/geodb/snapshot"
)

// Format names an on-disk database format.
type Format string

const (
	CSV  Format = "csv"
	Snap Format = "snap"
)

// Sniff classifies leading file bytes by magic. Anything that is not the
// snapshot magic is presumed CSV — the CSV reader then produces the real
// parse error if it is not.
func Sniff(head []byte) Format {
	if len(head) >= 4 && string(head[:4]) == snapshot.Magic {
		return Snap
	}
	return CSV
}

// SniffFile classifies a file on disk by its magic bytes.
func SniffFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	head := make([]byte, 4)
	n, _ := f.Read(head)
	return Sniff(head[:n]), nil
}

// Loaded is one opened database plus what backed it. Close is never nil;
// for snapshots it releases the file mapping and must only run once no
// lookups against DB remain possible.
type Loaded struct {
	DB     *geodb.DB
	Path   string
	Format Format
	Close  func() error
}

// Open loads one database file in the format its magic bytes name.
func Open(path string) (Loaded, error) {
	format, err := SniffFile(path)
	if err != nil {
		return Loaded{}, err
	}
	if format == Snap {
		h, err := snapshot.Open(path)
		if err != nil {
			return Loaded{}, err
		}
		return Loaded{DB: h.DB(), Path: path, Format: Snap, Close: h.Close}, nil
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	db, err := dbcsv.ReadFile(path, name)
	if err != nil {
		return Loaded{}, err
	}
	meta := db.Meta()
	meta.SourceFormat = "csv"
	db.SetMeta(meta)
	return Loaded{DB: db, Path: path, Format: CSV, Close: func() error { return nil }}, nil
}

// OpenDir loads every database artifact in dir (*.csv, *.rgsnap),
// sniffing each by magic, in sorted path order. Closing any returned
// Loaded is the caller's job; on error the already-opened ones are
// closed before returning.
func OpenDir(dir string) ([]Loaded, error) {
	var paths []string
	for _, pattern := range []string{"*.csv", "*" + snapshot.Ext} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no .csv or %s files", dir, snapshot.Ext)
	}
	var out []Loaded
	for _, p := range paths {
		l, err := Open(p)
		if err != nil {
			for _, prev := range out {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// Load opens path as one database file or, when it is a directory, as
// every database artifact in it (see OpenDir). Snapshot mappings stay
// open for the life of the process, which suits binaries that never
// retire what they loaded; callers that do must use Open or OpenDir.
func Load(path string) ([]*geodb.DB, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		l, err := Open(path)
		if err != nil {
			return nil, err
		}
		return []*geodb.DB{l.DB}, nil
	}
	loaded, err := OpenDir(path)
	if err != nil {
		return nil, err
	}
	dbs := make([]*geodb.DB, len(loaded))
	for i, l := range loaded {
		dbs[i] = l.DB
	}
	return dbs, nil
}

// WriteFile writes db to path: CSV when the path ends in .csv, an RGSP
// snapshot stamped with meta otherwise.
func WriteFile(path string, db *geodb.DB, meta snapshot.Meta) error {
	if filepath.Ext(path) == ".csv" {
		return dbcsv.WriteFile(path, db)
	}
	return snapshot.WriteFile(path, db, meta)
}
