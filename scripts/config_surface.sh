#!/bin/sh
# config_surface.sh — count the program's settable values: the exported
# fields of every *Config struct under internal/, per package, and the
# flags of `kpserve -h`, `kpload run -h`, `kptrain -h` and `kpgen -h`.
# Printed, not gated, so a "fewer knobs" claim in a PR is a number in
# its log (ROADMAP aim 2: a setting stays only if something earns it).
# Runs on the tree in the current directory, so the same script
# measures a base checkout.
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# One line per struct: "<package dir> <Type>: <n> fields (<names>)".
# A field line is a tab, then one or more comma-separated names before
# the type; only exported names count. Files are those of the working
# tree: tracked or untracked (not ignored) and present on disk.
git ls-files -co --exclude-standard 'internal/*.go' | grep -v '_test\.go$' | while read -r f; do
	[ -f "$f" ] || continue
	awk -v dir="$(dirname "$f")" '
		/^type [A-Za-z0-9_]*Config struct \{$/ { name = $2; n = 0; names = ""; in_s = 1; next }
		in_s && /^\}/ { printf "%s %s: %d fields (%s)\n", dir, name, n, substr(names, 2); in_s = 0; next }
		in_s && /^\t[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]/ {
			line = $0; sub(/^\t/, "", line)
			k = split(line, parts, /[ \t]+/)
			list = parts[1]
			for (i = 2; i <= k && list ~ /,$/; i++) list = list parts[i]
			m = split(list, ids, ",")
			for (i = 1; i <= m; i++) if (ids[i] ~ /^[A-Z]/) { n++; names = names " " ids[i] }
		}
	' "$f"
done | sort > "$TMP/structs"

cat "$TMP/structs"
awk '{ total += $3 } END { printf "Config fields under internal/: %d in %d structs\n", total, NR }' "$TMP/structs"

go build -o "$TMP/" ./cmd/kpserve ./cmd/kpload ./cmd/kptrain ./cmd/kpgen
# PrintDefaults writes one "  -name ..." line per flag.
for cmd in kpserve "kpload run" kptrain kpgen; do
	# $cmd is word-split on purpose: "kpload run" is binary + subcommand.
	# shellcheck disable=SC2086
	echo "$cmd -h flags: $("$TMP"/$cmd -h 2>&1 | grep -c '^  -' || true)"
done
