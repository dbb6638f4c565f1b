#!/usr/bin/env bash
# check_docs.sh — documentation gate, run by CI:
#
#   1. Every package under internal/ (and the root package) must carry
#      package documentation: a `// Package <name> ...` doc comment in
#      some non-test Go file.
#   2. Every relative markdown link in the repo's documentation set
#      (README.md, ARCHITECTURE.md, CHANGES.md, ROADMAP.md and any
#      markdown under examples/) must point at a file or directory that
#      exists.
#   3. Every *.md file named in a Go comment or in that documentation
#      set must exist, next to the naming file or at the repo root.
#
# Exits non-zero with one line per violation.
set -uo pipefail

cd "$(dirname "$0")/.."
fail=0

echo "== package documentation"
# Every library package — the root package and everything under
# internal/ — must carry a `// Package ...` doc comment (cmd/ and
# examples/ main packages use the `// Command ...` / walkthrough style
# and document themselves in the README instead).
while IFS= read -r dir; do
  pkgfiles=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [ -z "$pkgfiles" ] && continue
  if ! grep -l '^// Package ' $pkgfiles > /dev/null 2>&1; then
    echo "MISSING package doc: $dir"
    fail=1
  fi
done < <({ echo .; find internal -type d; } | sort -u)

echo "== markdown links"
docs=$(ls README.md ARCHITECTURE.md CHANGES.md ROADMAP.md 2>/dev/null; find examples -name '*.md' 2>/dev/null)
for doc in $docs; do
  dir=$(dirname "$doc")
  # Extract ](target) link targets; keep relative ones (skip URLs and
  # pure in-page anchors), strip any #fragment.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN link in $doc: $target"
      fail=1
    fi
  done < <(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//')
done

echo "== markdown file names"
# Names are runs of [A-Za-z0-9_./-] ending in ".md"; a leading "/"
# (an absolute path or a URL) is not a repo file and is skipped. Go
# comments are the text after "//" on lines that mention ".md".
name_re='[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b'
while IFS=$'\t' read -r file name; do
  case "$name" in /*) continue ;; esac
  if [ ! -e "$(dirname "$file")/$name" ] && [ ! -e "$name" ]; then
    echo "MISSING file $name named in $file"
    fail=1
  fi
done < <(
  grep -rHE --include='*.go' --exclude-dir=.git '//.*\.md\b' . |
    while IFS= read -r line; do
      file=${line%%:*}
      comment=${line#*:}
      comment=${comment#*//}
      grep -oE "$name_re" <<<"$comment" | sed "s|^|$file\t|"
    done
  grep -oHE "$name_re" $docs | sed 's/:/\t/'
)

if [ "$fail" -ne 0 ]; then
  echo "FAIL: documentation check"
  exit 1
fi
echo "PASS"
