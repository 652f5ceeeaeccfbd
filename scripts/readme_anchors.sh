#!/usr/bin/env bash
# Every `README "<heading>"` citation in the code under crates/ must name a
# `## <heading>` line of README.md, so renaming a README section cannot
# leave a stale pointer behind. A citation sits on one line: a line that
# ends in `README` or in an unclosed `README "…` (the heading wrapped onto
# the next line) fails too, since it could not be checked.
#
# Every backticked name in the `Pinned by` column of a README table must be
# a `fn` under crates/ or tests/, so renaming a test cannot leave a stale
# pin behind. A README with no such column fails: the check would be empty.
#
#   scripts/readme_anchors.sh
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
count=0
while IFS= read -r hit; do
  file=${hit%%:*} rest=${hit#*:}
  line=${rest%%:*} cite=${rest#*:}
  heading=${cite#README \"}
  heading=${heading%\"}
  count=$((count + 1))
  if ! grep -qxF -- "## $heading" README.md; then
    echo "$file:$line: README.md has no heading \"## $heading\"" >&2
    status=1
  fi
done < <(grep -rnoE --include='*.rs' 'README "[^"]+"' crates)
while IFS= read -r hit; do
  echo "${hit%%:*}:$(cut -d: -f2 <<<"$hit"): README citation wrapped across lines" >&2
  status=1
done < <(grep -rnE --include='*.rs' 'README( "[^"]*)?$' crates)
pins=0
while IFS= read -r pin; do
  pins=$((pins + 1))
  if ! [[ $pin =~ ^[a-z_][a-z0-9_]*$ ]] ||
    ! grep -rqw --include='*.rs' -- "fn $pin" crates tests; then
    echo "README.md: pinned test \`$pin\` is no fn under crates/ or tests/" >&2
    status=1
  fi
done < <(awk -F'|' '
  /^\|/ && col {
    if ($0 !~ /^\|[-| :]+\|$/) { n = split($col, part, "`"); for (i = 2; i <= n; i += 2) print part[i] }
    next
  }
  { col = 0 }
  /^\|/ { for (i = 1; i <= NF; i++) if ($i ~ /^ *Pinned by *$/) col = i }
' README.md)
if [ "$pins" -eq 0 ]; then
  echo "README.md: no \`Pinned by\` column names a test" >&2
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "$count README citations, every one names a README heading"
  echo "$pins pinned tests in README, every one a fn under crates/ or tests/"
fi
exit "$status"
