// Package promlint strictly parses the Prometheus text exposition format
// 0.0.4. Only tests import it: they lint what obs's /metrics writer emits
// the way a picky scraper would.
package promlint

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionMetric is one metric family seen by LintExposition.
type ExpositionMetric struct {
	Name    string
	Type    string // counter, gauge, histogram, summary or untyped
	Help    string
	Samples int // sample lines attributed to the family
}

// expoState tracks one family while linting.
type expoState struct {
	ExpositionMetric
	closed    bool // a later family started; more samples are an error
	haveSum   bool
	haveCount bool
	count     float64
	sum       float64
	buckets   []expoBucket
}

type expoBucket struct {
	le  float64
	raw string
	n   float64
}

// promNameOK reports whether s is a legal metric name.
func promNameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// promLabelNameOK reports whether s is a legal label name.
func promLabelNameOK(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return promNameOK(s)
}

var expoTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// LintExposition strictly parses Prometheus text exposition format
// 0.0.4 and enforces the rules a picky scraper (or promtool check
// metrics) would: legal metric and label names, escaped label values,
// parseable sample values, HELP/TYPE declared exactly once and before
// any sample, families contiguous (no interleaving), no duplicate
// series, and — for histograms — cumulative non-decreasing buckets, a
// +Inf bucket equal to _count, and _sum/_count present. Every violation
// is an error carrying its line number. On success it returns the
// families seen, keyed by name.
func LintExposition(r io.Reader) (map[string]*ExpositionMetric, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)

	fams := map[string]*expoState{}
	series := map[string]bool{}
	var current *expoState
	line := 0

	family := func(name string) *expoState {
		if f, ok := fams[name]; ok {
			return f
		}
		f := &expoState{ExpositionMetric: ExpositionMetric{Name: name, Type: "untyped"}}
		fams[name] = f
		return f
	}
	enter := func(f *expoState) error {
		if current == f {
			return nil
		}
		if f.closed {
			return fmt.Errorf("line %d: family %s reopened after other samples (families must be contiguous)", line, f.Name)
		}
		if current != nil {
			current.closed = true
		}
		current = f
		return nil
	}

	for sc.Scan() {
		line++
		text := sc.Text()
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			if err := lintComment(trimmed, line, fams, family, enter); err != nil {
				return nil, err
			}
			continue
		}
		if err := lintSample(text, line, fams, family, enter, series); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading exposition: %w", err)
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]*ExpositionMetric, len(fams))
	for _, name := range names {
		f := fams[name]
		if err := f.finish(); err != nil {
			return nil, err
		}
		m := f.ExpositionMetric
		out[name] = &m
	}
	return out, nil
}

// lintComment handles # HELP and # TYPE lines (anything else after # is
// a free comment).
func lintComment(trimmed string, line int, fams map[string]*expoState,
	family func(string) *expoState, enter func(*expoState) error) error {
	parts := strings.SplitN(trimmed, " ", 4)
	if len(parts) < 2 || (parts[1] != "HELP" && parts[1] != "TYPE") {
		return nil // ordinary comment
	}
	if len(parts) < 3 || !promNameOK(parts[2]) {
		return fmt.Errorf("line %d: malformed %s line", line, parts[1])
	}
	f := family(parts[2])
	if f.Samples > 0 {
		return fmt.Errorf("line %d: %s for %s after its samples", line, parts[1], f.Name)
	}
	if err := enter(f); err != nil {
		return err
	}
	if parts[1] == "HELP" {
		if f.Help != "" {
			return fmt.Errorf("line %d: duplicate HELP for %s", line, f.Name)
		}
		if len(parts) < 4 || parts[3] == "" {
			return fmt.Errorf("line %d: empty HELP for %s", line, f.Name)
		}
		f.Help = parts[3]
		return nil
	}
	if f.Type != "untyped" {
		return fmt.Errorf("line %d: duplicate TYPE for %s", line, f.Name)
	}
	if len(parts) < 4 || !expoTypes[parts[3]] {
		return fmt.Errorf("line %d: unknown TYPE %q for %s", line, strings.Join(parts[3:], " "), f.Name)
	}
	f.Type = parts[3]
	return nil
}

// sampleFamily maps a sample name onto its declaring family, resolving
// histogram (and summary) _bucket/_sum/_count suffixes.
func sampleFamily(fams map[string]*expoState, name string) (base string, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		b := strings.TrimSuffix(name, sfx)
		if b == name {
			continue
		}
		if f, ok := fams[b]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return b, sfx
		}
	}
	return name, ""
}

// lintSample validates one sample line and attributes it to a family.
func lintSample(text string, line int, fams map[string]*expoState,
	family func(string) *expoState, enter func(*expoState) error, series map[string]bool) error {
	name, labels, value, err := splitSample(text)
	if err != nil {
		return fmt.Errorf("line %d: %w", line, err)
	}
	if !promNameOK(name) {
		return fmt.Errorf("line %d: illegal metric name %q", line, name)
	}
	val, err := parsePromValue(value)
	if err != nil {
		return fmt.Errorf("line %d: bad value %q: %v", line, value, err)
	}

	base, suffix := sampleFamily(fams, name)
	f := family(base)
	if err := enter(f); err != nil {
		return err
	}
	if f.Type == "histogram" && suffix == "" && base == name {
		return fmt.Errorf("line %d: histogram %s has a bare sample (want _bucket/_sum/_count)", line, name)
	}

	key := name + "{" + canonicalLabels(labels) + "}"
	if series[key] {
		return fmt.Errorf("line %d: duplicate series %s", line, key)
	}
	series[key] = true
	f.Samples++

	switch suffix {
	case "_sum":
		f.haveSum, f.sum = true, val
	case "_count":
		f.haveCount, f.count = true, val
	case "_bucket":
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("line %d: %s_bucket without le label", line, base)
		}
		lv, err := parsePromValue(le)
		if err != nil {
			return fmt.Errorf("line %d: unparseable le %q", line, le)
		}
		f.buckets = append(f.buckets, expoBucket{le: lv, raw: le, n: val})
	}
	return nil
}

// splitSample cuts one sample line into name, labels and value,
// validating label syntax and escapes.
func splitSample(text string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		if labels, err = parseLabels(rest[i+1 : end]); err != nil {
			return "", nil, "", err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, "", fmt.Errorf("sample line needs a name and a value")
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("want value and optional timestamp, got %q", rest)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], nil
}

// parseLabels parses `k="v",k2="v2"` with exposition escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without =: %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !promLabelNameOK(key) {
			return nil, fmt.Errorf("illegal label name %q", key)
		}
		s = strings.TrimSpace(s[eq+1:])
		if s == "" || s[0] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: trailing backslash", key)
				}
				i++
				switch s[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", key, s[i])
				}
				continue
			}
			if c == '"' {
				closed = true
				s = strings.TrimSpace(s[i+1:])
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate label %s", key)
		}
		out[key] = b.String()
		if s == "" {
			break
		}
		if s[0] != ',' {
			return nil, fmt.Errorf("expected , between labels, got %q", s)
		}
		s = strings.TrimSpace(s[1:])
	}
	return out, nil
}

// canonicalLabels renders a label set sorted, for duplicate detection.
func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return strings.Join(parts, ",")
}

// parsePromValue parses a sample value, accepting the spec's infinity
// and NaN spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// finish validates a family's cross-sample invariants once the whole
// exposition is read.
func (f *expoState) finish() error {
	if f.Type != "histogram" {
		return nil
	}
	if !f.haveSum || !f.haveCount {
		return fmt.Errorf("histogram %s missing _sum or _count", f.Name)
	}
	if len(f.buckets) == 0 {
		return fmt.Errorf("histogram %s has no buckets", f.Name)
	}
	sort.SliceStable(f.buckets, func(i, j int) bool { return f.buckets[i].le < f.buckets[j].le })
	last := f.buckets[len(f.buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("histogram %s missing +Inf bucket", f.Name)
	}
	if last.n != f.count {
		return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", f.Name, last.n, f.count)
	}
	for i := 1; i < len(f.buckets); i++ {
		if f.buckets[i].n < f.buckets[i-1].n {
			return fmt.Errorf("histogram %s: bucket le=%q count %v below previous %v (not cumulative)",
				f.Name, f.buckets[i].raw, f.buckets[i].n, f.buckets[i-1].n)
		}
	}
	return nil
}
