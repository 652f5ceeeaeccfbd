#!/usr/bin/env bash
# Every `README "<heading>"` citation in the code under crates/ must name a
# `## <heading>` line of README.md, so renaming a README section cannot
# leave a stale pointer behind. A citation sits on one line: a line that
# ends in `README` or in an unclosed `README "…` (the heading wrapped onto
# the next line) fails too, since it could not be checked.
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
if [ "$status" -eq 0 ]; then
  echo "$count README citations, every one names a README heading"
fi
exit "$status"
