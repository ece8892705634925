#!/bin/sh
# Compares routergeo's stdout at a base revision with the working tree's:
#
#   sh scripts/samebytes.sh BASE      (or: make samebytes BASE=<ref>)
#
# It extracts BASE with `git archive` into a temporary directory, builds
# cmd/routergeo there and in the working tree, and runs both binaries
# with each flag set below, every one with -manifest ''. It prints one
# line per set, `same` or `DIFFERS` (with the first differing line), and
# exits nonzero if any stdout differs or any run fails. The temporary
# directory goes when the script exits, however it exits, and git keeps
# no record of it.
#
# The sets are the by-hand checks that TestGolden and TestWorldDigests do
# not cover: other seeds, the serial path and the 4x and 16x worlds. The
# whole comparison took 25 s on a 2-core Intel Xeon, most of it the 16x
# world. A change that declares an output change differs here by design,
# so CI does not run this script.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base="$1"
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base" ./cmd/routergeo)
go build -o "$tmp/head" ./cmd/routergeo

status=0
while IFS= read -r flags; do
	name="${flags:-(default)}"
	# $flags is split into words on purpose.
	# shellcheck disable=SC2086
	if ! "$tmp/base" -manifest '' $flags </dev/null >"$tmp/base.out" 2>"$tmp/base.err"; then
		echo "FAILED   $name   at $base: $(tail -n 1 "$tmp/base.err")"
		status=1
		continue
	fi
	# shellcheck disable=SC2086
	if ! "$tmp/head" -manifest '' $flags </dev/null >"$tmp/head.out" 2>"$tmp/head.err"; then
		echo "FAILED   $name   in the working tree: $(tail -n 1 "$tmp/head.err")"
		status=1
		continue
	fi
	if diff=$(cmp "$tmp/base.out" "$tmp/head.out" 2>&1); then
		echo "same     $name"
	else
		echo "DIFFERS  $name   (first at ${diff##*differ: })"
		status=1
	fi
done <<'EOF'

-ext
-seed 7
-seed 24 -ext
-parallelism 1 -seed 7
-ases 3600
-ases 14400
-longitudinal
EOF
exit $status
