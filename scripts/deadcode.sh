#!/bin/sh
# Lists the top-level functions in internal/ that no binary links:
#
#   sh scripts/deadcode.sh
#
# It builds every binary (cmd/*, examples/* and perfbench) with inlining
# off, so that each function a binary calls keeps its own text symbol,
# and reads their symbols with `go tool nm`. Each func declared in a
# non-test file of an internal/ package that is missing from all of
# them is printed as `file:line symbol`, in file order; the count goes
# to stderr. It is a report: the exit status is nonzero only when a
# binary does not build.
#
# Files outside the current platform's build are left out, as are
# init functions, which run wherever their package is linked, and
# internal/obs/promlint, which only tests import.
set -eu
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for dir in cmd/*/ examples/*/; do
	name="$(basename "$dir")"
	go build -gcflags=all=-l -o "$tmp/bin/$name" "./$dir"
done
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)

# Linked symbols, normalised to pkg.Recv.Name: generic instantiation
# brackets (innermost first, so nested ones go too) and the (*T)
# pointer-receiver spelling are stripped.
for bin in "$tmp"/bin/*; do
	go tool nm -type "$bin"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
	sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' -e 's/(\*\([^)]*\))/\1/' |
	sort -u >"$tmp/linked"

# Declared functions, as file:line<TAB>pkg.Recv.Name.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	grep -v '^routergeo/internal/obs/promlint ' |
	while read -r pkg file; do
		rel="${file#"$PWD"/}"
		awk -v pkg="$pkg" -v file="$rel" '
			/^func / {
				line = $0
				sub(/^func /, "", line)
				recv = ""
				if (line ~ /^\(/) {
					recv = substr(line, 2, index(line, ")") - 2)
					line = substr(line, index(line, ")") + 2)
					sub(/\[.*/, "", recv)
					n = split(recv, parts, " ")
					recv = parts[n]
					sub(/^\*/, "", recv)
					recv = recv "."
				}
				match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(line, 1, RLENGTH)
				if (recv == "" && name == "init") next
				printf "%s:%d\t%s.%s%s\n", file, NR, pkg, recv, name
			}' "$file"
	done >"$tmp/declared"

awk -F '\t' 'NR == FNR { linked[$1] = 1; next }
	!($2 in linked) { print $1 " " $2 }' "$tmp/linked" "$tmp/declared" >"$tmp/dead"
cat "$tmp/dead"
echo "deadcode: $(wc -l <"$tmp/dead" | tr -d ' ') functions in internal/ that no binary links" >&2
