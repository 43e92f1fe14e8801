#!/usr/bin/env bash
# Reachability audit: every function declared in a non-test file under
# internal/ must be linked into at least one of the repository's
# binaries, or be listed with a reason in scripts/reach.allow.
#
#   scripts/reach.sh          # exit 0 when the two sets agree
#
# The linked set is the symbol table of the nine binaries a user can
# run: cmd/{nfd,nfrun,enetstl-bench,pktgen}, examples/*, and bench (its
# own module, built into a temporary directory so nothing is written
# under bench/). Everything is built with -gcflags=all=-l: with inlining
# on, a function inlined at every call site leaves no symbol and would
# read as unreachable. The linker keeps every method that an interface
# conversion or reflection can reach, so a declared function missing
# from all nine binaries cannot run from any input.
#
# The declared set comes from `func` lines in the source, not from
# package archives, whose symbol tables also hold compiler-generated
# interface wrappers. Symbols are normalised to <dir>.<Func> or
# <dir>.<Type>.<Method>: (*T).M becomes T.M, type-argument brackets are
# dropped (a generic Must appears as Must[go.shape.…]), and closures
# (.funcN, .deferwrapN, .gowrapN, -rangeN) and method values (-fm) are
# not functions of their own.
#
# The script fails on (a) an unlinked function that reach.allow does not
# list and (b) a reach.allow entry that is linked or no longer declared.
# A reach.allow line is `<symbol> <reason>`; the reason must say why the
# function stays although no binary links it (a test oracle goes into a
# _test.go file instead). Needs bash, go and the POSIX text tools.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "$0")/.." && pwd)"
allow="$root/scripts/reach.allow"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

cd "$root"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go build -C bench -gcflags=all=-l -o "$tmp/bin/bench" .

# Linked: text symbols of the internal packages, normalised.
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
	grep '^enetstl/internal/' |
	sed -E -e 's/^enetstl\///' \
		-e ':b' -e 's/\[[^][]*\]//g' -e 'tb' \
		-e 's/\(\*?([A-Za-z0-9_]+)\)/\1/' |
	grep -vE '\.(func|deferwrap|gowrap)[0-9]|-range[0-9]|\.init(\.[0-9]+)?$' |
	sed -E 's/-fm$//' | sort -u >"$tmp/linked"

# Declared: func lines of non-test files, as "<symbol> <file>:<line>".
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 grep -Hn '^func ' |
	sed -E -n \
		-e 's#^(internal/[^:]*)/[^/:]+\.go:([0-9]+):func \([A-Za-z0-9_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#\1.\3.\5 &#p' \
		-e 't' \
		-e 's#^(internal/[^:]*)/[^/:]+\.go:([0-9]+):func ([A-Za-z0-9_]+).*#\1.\3 &#p' |
	awk '{ split($2, f, ":"); print $1, f[1] ":" f[2] }' |
	grep -v '\.init ' | sort -k1,1 >"$tmp/declared"

awk '{ print $1 }' "$tmp/declared" | sort -u | comm -23 - "$tmp/linked" >"$tmp/unlinked"

# Allowed: first field of every non-comment line; the rest is the reason.
bad=0
awk '!/^[[:space:]]*(#|$)/ { if (NF < 2) { print "reach.allow:" NR ": " $1 ": no reason given" > "/dev/stderr"; bad = 1 } print $1 }
	END { exit bad }' "$allow" | sort >"$tmp/entries" || bad=1
if [ -n "$(uniq -d "$tmp/entries")" ]; then
	echo "reach.allow: duplicate entries: $(uniq -d "$tmp/entries" | tr '\n' ' ')" >&2
	bad=1
fi
uniq "$tmp/entries" >"$tmp/allowed"

missing="$(comm -23 "$tmp/unlinked" "$tmp/allowed")"
stale="$(comm -13 "$tmp/unlinked" "$tmp/allowed")"
if [ -n "$missing" ]; then
	echo "reach: functions no binary links (delete them, move a test oracle to a _test.go, or list them in scripts/reach.allow with a reason):" >&2
	join <(echo "$missing") "$tmp/declared" | sed 's/^/  /' >&2
	bad=1
fi
if [ -n "$stale" ]; then
	echo "reach: scripts/reach.allow entries that a binary links or no file declares (remove them):" >&2
	echo "$stale" | sed 's/^/  /' >&2
	bad=1
fi
echo "reach: $(wc -l <"$tmp/declared") functions declared under internal/, $(wc -l <"$tmp/unlinked") linked by no binary, $(wc -l <"$tmp/allowed") allowed" >&2
exit "$bad"
