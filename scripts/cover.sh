#!/usr/bin/env bash
# Execution audit: every function declared in a non-test file under
# internal/ must execute at least one statement in a user run, or be
# excused by scripts/cover.allow.
#
#   scripts/cover.sh          # exit 0 when the two sets agree
#
# The run set is the Makefile's own invocations, not a list kept here:
# the make targets below run exactly as `make check` runs them, with
# GOFLAGS adding -cover (every binary `go run` builds is instrumented
# and writes its counters to GOCOVERDIR) and -coverpkg/-coverprofile
# (bench's tests, a module of their own, count what they execute under
# enetstl/internal/...). Between them the targets build and run every
# user binary: cmd/{nfrun,nfd,enetstl-bench,pktgen}, examples/* and
# bench's run paths. The conformance grid's targets (difftest,
# chaos-smoke, attack-smoke) are test runs, not user runs, and stay out
# of the set. A target that fails under instrumentation is reported and
# its coverage up to the failure still counts; the target itself is
# gated uninstrumented by `make check` (bench's accounting check, a
# timing ratio, fails more often with counters on).
#
# The declared set comes from `func` lines in the source, as
# <dir>.<Func> or <dir>.<Type>.<Method> with its file:line; a function
# is executed when the merged profile gives it a statement count above
# zero at that file:line. An unlinked function never executes, so this
# audit also covers everything a link audit would.
#
# The script fails on (a) an unexecuted function that cover.allow does
# not excuse, printed as `<dir>.<Func> <file>:<line>`, (b) a named
# cover.allow entry that executed or that no file declares any more, or
# an iface or testpkg rule that excuses nothing, and (c) a non-test Go
# file, outside the testpkg packages themselves, that imports a testpkg
# package. Needs bash, go, make and the POSIX text tools; about 20 s
# with a warm build cache.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "$0")/.." && pwd)"
allow="$root/scripts/cover.allow"
targets="obs-smoke nfd-smoke paper-smoke examples-smoke bench-test"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov"

cd "$root"

# Run set.
for t in $targets; do
	if ! GOCOVERDIR="$tmp/cov" GOFLAGS="-cover -coverpkg=enetstl/... -coverprofile=$tmp/test.$t.out" \
		make -s "$t" >"$tmp/$t.log" 2>&1; then
		echo "cover: note: make $t failed under instrumentation; its coverage up to the failure counts, and make check runs it uninstrumented:" >&2
		tail -n 5 "$tmp/$t.log" | sed 's/^/  /' >&2
	fi
done

# Executed: functions with a statement count above zero, as file:line.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/run.out"
{
	cat "$tmp/run.out"
	for f in "$tmp"/test.*.out; do
		[ -e "$f" ] && grep '^enetstl/internal/' "$f" || true
	done
} >"$tmp/merged.out"
go tool cover -func="$tmp/merged.out" |
	awk -F'\t+' '$1 ~ /^enetstl\/internal\// && $NF != "0.0%" { sub(/^enetstl\//, "", $1); sub(/:$/, "", $1); print $1 }' |
	sort -u >"$tmp/executed"

# Declared: func lines of non-test files, as "<symbol> <file>:<line>".
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 grep -Hn '^func ' |
	sed -E -n \
		-e 's#^(internal/[^:]*)/[^/:]+\.go:([0-9]+):func \([A-Za-z0-9_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#\1.\3.\5 &#p' \
		-e 't' \
		-e 's#^(internal/[^:]*)/[^/:]+\.go:([0-9]+):func ([A-Za-z0-9_]+).*#\1.\3 &#p' |
	awk '{ split($2, f, ":"); print $1, f[1] ":" f[2] }' |
	grep -v '\.init ' | sort -k2,2 >"$tmp/declared"
join -1 2 -2 1 -v 1 -o 1.1,1.2 "$tmp/declared" "$tmp/executed" | sort >"$tmp/unexecuted"

# cover.allow: `method <Name> <reason>` excuses every method of that
# name, `errctor <reason>` every error constructor (see is_errctor),
# `iface <dir>.<Interface> <reason>` every method declared in <dir>
# whose name the interface (with the interfaces it embeds) declares,
# `testpkg <dir> <reason>` every function declared in <dir>, a package
# only tests may import, and `<symbol> <reason>` one function. Every
# line needs a reason.
bad=0
awk '!/^[[:space:]]*(#|$)/ {
		n = ($1 == "method" || $1 == "iface" || $1 == "testpkg") ? 3 : 2
		if (NF <= n) { print "cover.allow:" NR ": no reason given" > "/dev/stderr"; bad = 1 }
		if ($1 == "method" || $1 == "iface" || $1 == "testpkg") print $1, $2; else if ($1 == "errctor") print "errctor"; else print "name", $1
	}
	END { exit bad }' "$allow" >"$tmp/entries" || bad=1
awk '$1 == "name" { print $2 }' "$tmp/entries" | sort >"$tmp/names"
if [ -n "$(uniq -d "$tmp/names")" ]; then
	echo "cover.allow: duplicate entries: $(uniq -d "$tmp/names" | tr '\n' ' ')" >&2
	bad=1
fi
awk '$1 == "method" { print $2 }' "$tmp/entries" >"$tmp/methods"
awk '$1 == "testpkg" { print $2 }' "$tmp/entries" | sort -u >"$tmp/testpkgs"
errctor="$(awk '$1 == "errctor" { print "yes"; exit }' "$tmp/entries")"

# A testpkg package ships in no binary: no package in the repository
# (bench's module included) imports it from a non-test file, except the
# testpkg packages themselves.
{
	go list -f '{{.Dir}} {{join .Imports " "}}' ./...
	(cd bench && go list -f '{{.Dir}} {{join .Imports " "}}' ./...)
} | sed "s#^$root/##" >"$tmp/imports"
while read -r dir; do
	if [ -z "$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' 2>/dev/null)" ]; then
		echo "cover.allow: testpkg $dir: no such package" >&2
		bad=1
	fi
done <"$tmp/testpkgs"
awk -v list="$tmp/testpkgs" '
	BEGIN { while ((getline d < list) > 0) test[d] = 1 }
	!($1 in test) { for (i = 2; i <= NF; i++) { p = $i; sub(/^enetstl\//, "", p); if (p in test) print $1 " imports " $i } }' \
	"$tmp/imports" >"$tmp/importers"
if [ -s "$tmp/importers" ]; then
	echo "cover: test-only packages (cover.allow testpkg) that a non-test file imports, so a binary links them:" >&2
	sed 's/^/  /' "$tmp/importers" >&2
	bad=1
fi

# iface_methods <dir> <Interface>: the method names the interface
# declares in <dir>'s non-test files, following embedded interfaces
# declared in the same directory.
iface_methods() {
	local dir="$1" name="$2" line
	find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
		xargs -0 awk -v t="$name" '
			$0 ~ "^type " t " interface \\{$" { in_t = 1; next }
			in_t && /^}/ { exit }
			in_t && match($0, /^\t[A-Z][A-Za-z0-9_]*\(/) { print "m", substr($0, 2, RLENGTH - 2) }
			in_t && /^\t[A-Z][A-Za-z0-9_]*$/ { sub(/^\t/, ""); print "e", $0 }' |
		while read -r kind line; do
			if [ "$kind" = m ]; then echo "$line"; else iface_methods "$dir" "$line"; fi
		done
}
: >"$tmp/ifaces"
awk '$1 == "iface" { print $2 }' "$tmp/entries" | while read -r rule; do
	methods="$(iface_methods "${rule%.*}" "${rule##*.}" | sort -u | tr '\n' ' ')"
	if [ -z "$methods" ]; then
		echo "cover.allow: iface $rule: no such interface" >&2
		echo "$rule -" >>"$tmp/ifaces"
	else
		echo "$rule $methods" >>"$tmp/ifaces"
	fi
done
if grep -q ' -$' "$tmp/ifaces"; then bad=1; fi

# An error constructor is a function whose result is exactly `error`
# and whose body only returns a new error, or appends one to a list of
# collected errors — fmt.Errorf or errors.New, optionally under a
# switch: it builds the error a fault path reports and holds no logic
# of its own.
is_errctor() {
	local file="${1%%:*}" line="${1##*:}"
	awk -v l="$line" '
		NR == l { if ($0 !~ /\) error \{$/ && $0 !~ /\) \{$/) exit 1; body = 1; sig = $0; next }
		body && /^}/ { exit ok ? 0 : 1 }
		body {
			s = $0; sub(/^[[:space:]]+/, "", s)
			if (sig ~ /\) error \{$/ && s ~ /^return (fmt\.Errorf|errors\.New)\(/) { ok = 1; next }
			if (s ~ /^[A-Za-z_.]+ = append\([A-Za-z_.]+, (fmt\.Errorf|errors\.New)\(/) { ok = 1; next }
			if (s ~ /^(switch .*\{|case .*:|default:|\}|\/\/.*)$/ || s == "") next
			exit 1
		}' "$file"
}

: >"$tmp/missing"
: >"$tmp/ruled"
while read -r sym loc; do
	if grep -qxF "$sym" "$tmp/names"; then continue; fi
	if grep -qxF "${sym%%.*}" "$tmp/testpkgs"; then
		echo "$sym $loc testpkg ${sym%%.*}" >>"$tmp/ruled"
		continue
	fi
	method="${sym##*.}"
	if [ "$(tr -cd . <<<"${sym#internal/}" | wc -c)" -ge 2 ]; then
		if grep -qxF "$method" "$tmp/methods"; then
			echo "$sym $loc method $method" >>"$tmp/ruled"
			continue
		fi
		dir="${sym%%.*}"
		rule="$(awk -v d="$dir" -v m="$method" '{ split($1, r, "."); if (r[1] != d) next; for (i = 2; i <= NF; i++) if ($i == m) { print $1; exit } }' "$tmp/ifaces")"
		if [ -n "$rule" ]; then
			echo "$sym $loc iface $rule" >>"$tmp/ruled"
			continue
		fi
	fi
	if [ -n "$errctor" ] && is_errctor "$loc"; then
		echo "$sym $loc errctor" >>"$tmp/ruled"
		continue
	fi
	echo "$sym $loc" >>"$tmp/missing"
done <"$tmp/unexecuted"

# An iface or testpkg rule that excuses nothing is stale, like a named
# entry.
while read -r rule _; do
	if ! awk -v r="$rule" '$3 == "iface" && $4 == r { found = 1 } END { exit !found }' "$tmp/ruled"; then
		echo "$rule" >>"$tmp/stale.rules"
	fi
done <"$tmp/ifaces"
while read -r rule; do
	if ! awk -v r="$rule" '$3 == "testpkg" && $4 == r { found = 1 } END { exit !found }' "$tmp/ruled"; then
		echo "testpkg $rule" >>"$tmp/stale.rules"
	fi
done <"$tmp/testpkgs"

awk '{ print $1 }' "$tmp/unexecuted" | sort -u >"$tmp/unexecuted.syms"
stale="$(comm -23 <(sort -u "$tmp/names") "$tmp/unexecuted.syms"; cat "$tmp/stale.rules" 2>/dev/null || true)"
if [ -s "$tmp/missing" ]; then
	echo "cover: functions no user run executes (delete them, move a test oracle to a _test.go, exercise them from a make target, or excuse them in scripts/cover.allow):" >&2
	sed 's/^/  /' "$tmp/missing" >&2
	bad=1
fi
if [ -n "$stale" ]; then
	echo "cover: scripts/cover.allow entries that a user run executes or no file declares (remove them):" >&2
	echo "$stale" | sed 's/^/  /' >&2
	bad=1
fi
echo "cover: $(wc -l <"$tmp/declared") functions declared under internal/, $(wc -l <"$tmp/unexecuted") executed by no user run: $(wc -l <"$tmp/ruled") excused by rule, $(sort -u "$tmp/names" | comm -12 - "$tmp/unexecuted.syms" | wc -l) by name, $(wc -l <"$tmp/missing") unexplained" >&2
exit "$bad"
