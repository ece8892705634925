#!/bin/sh
# Compares routergeo's stdout at a base revision with the working tree's:
#
#   sh scripts/samebytes.sh BASE      (or: make samebytes BASE=<ref>)
#
# It extracts BASE with `git archive` into a temporary directory, builds
# cmd/routergeo and examples/detour there and in the working tree, and
# runs both routergeo binaries with each flag set below, every one with
# -manifest ''. One more line runs both detour binaries: detour is the
# only caller of Study.SamplePaths, so that line checks the traceroutes
# it samples. It prints one line per run, `same` or `DIFFERS` (with the
# first differing line), and exits nonzero if any stdout differs or any
# run fails. The temporary directory goes when the script exits, however
# it exits, and git keeps no record of it.
#
# The sets are the by-hand checks that TestGolden and TestWorldDigests do
# not cover: other seeds, the serial path, the 4x and 16x worlds and
# SamplePaths. The whole comparison took 25 s on a 2-core Intel Xeon,
# most of it the 16x world; detour takes under a second. A change that
# declares an output change differs here by design, so CI does not run
# this script.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base="$1"
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src" "$tmp/base" "$tmp/head"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/" ./cmd/routergeo ./examples/detour)
go build -o "$tmp/head/" ./cmd/routergeo ./examples/detour

status=0
# compare NAME BIN ARGS... runs BIN as built at BASE and in the working
# tree with ARGS and prints whether their stdouts match.
compare() {
	name="$1" bin="$2"
	shift 2
	if ! "$tmp/base/$bin" "$@" </dev/null >"$tmp/base.out" 2>"$tmp/base.err"; then
		echo "FAILED   $name   at $base: $(tail -n 1 "$tmp/base.err")"
		status=1
		return
	fi
	if ! "$tmp/head/$bin" "$@" </dev/null >"$tmp/head.out" 2>"$tmp/head.err"; then
		echo "FAILED   $name   in the working tree: $(tail -n 1 "$tmp/head.err")"
		status=1
		return
	fi
	if diff=$(cmp "$tmp/base.out" "$tmp/head.out" 2>&1); then
		echo "same     $name"
	else
		echo "DIFFERS  $name   (first at ${diff##*differ: })"
		status=1
	fi
}

while IFS= read -r flags; do
	# $flags is split into words on purpose.
	# shellcheck disable=SC2086
	compare "${flags:-(default)}" routergeo -manifest '' $flags
done <<'EOF'

-ext
-seed 7
-seed 24 -ext
-parallelism 1 -seed 7
-ases 3600
-ases 14400
-longitudinal
EOF
compare "examples/detour (SamplePaths)" detour
exit $status
