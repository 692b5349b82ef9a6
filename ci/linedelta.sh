#!/usr/bin/env bash
# Rust line delta under crates/, split into non-test and test code.
#
#   ci/linedelta.sh BASE [HEAD]
#
# Compares revision BASE with revision HEAD, or with the working tree
# (untracked .rs files included) when HEAD is omitted, and prints two
# rows of `+added/−removed (net)`:
#
#   non-test +169/−95 (+74)
#   test     +241/−57 (+184)
#
# Test code is every file under a `tests/` directory, plus the lines of
# any other file from a `#[cfg(test)]` line directly followed by a
# `mod tests` line to the end of the file. A removed line is judged on
# the old side, an added line on the new side. Renames count as a
# deletion plus an addition.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
  echo "usage: $0 BASE [HEAD]" >&2
  exit 2
fi
base=$1
head=${2:-}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
  echo "linedelta: unknown revision $base" >&2
  exit 2
}

# The first test line of a file's content on stdin (1-based), or a line
# past any file's end when it has no test module.
test_start_of() {
  awk '
    prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && /^[[:space:]]*mod tests([^[:alnum:]_]|$)/ {
      print NR - 1; found = 1; exit
    }
    { prev = $0 }
    END { if (!found) print 999999999 }'
}

# The first test line of PATH at revision REV ("" for the working tree);
# 1 for a file under a tests/ directory, past the end for a missing file.
test_start() {
  local rev=$1 path=$2
  case "/$path" in
    */tests/*) echo 1; return ;;
  esac
  if [ -z "$rev" ]; then
    if [ -f "$path" ]; then test_start_of <"$path"; else echo 999999999; fi
  elif git cat-file -e "$rev:$path" 2>/dev/null; then
    git show "$rev:$path" | test_start_of
  else
    echo 999999999
  fi
}

totals=(0 0 0 0) # non-test added, non-test removed, test added, test removed
add_counts() {
  read -r na nr ta tr
  totals=($((totals[0] + na)) $((totals[1] + nr)) $((totals[2] + ta)) $((totals[3] + tr)))
}

while IFS= read -r path; do
  [ -n "$path" ] || continue
  old=$(test_start "$base" "$path")
  new=$(test_start "$head" "$path")
  add_counts < <(git diff --no-renames --no-color -U0 "$base" ${head:+"$head"} -- "$path" | awk \
    -v os="$old" -v ns="$new" '
      /^@@ / {
        split(substr($2, 2), o, ","); split(substr($3, 2), n, ",")
        ol = o[1] + 0; nl = n[1] + 0; inhunk = 1; next
      }
      !inhunk { next }
      /^-/ { if (ol >= os) tr++; else nr++; ol++; next }
      /^\+/ { if (nl >= ns) ta++; else na++; nl++; next }
      END { print na + 0, nr + 0, ta + 0, tr + 0 }')
done < <(git diff --no-renames --name-only "$base" ${head:+"$head"} -- 'crates/*.rs')

if [ -z "$head" ]; then
  # Untracked files are all added lines.
  while IFS= read -r path; do
    [ -n "$path" ] || continue
    start=$(test_start "" "$path")
    lines=$(($(wc -l <"$path")))
    if [ "$start" -le "$lines" ]; then
      add_counts <<<"$((start - 1)) 0 $((lines - start + 1)) 0"
    else
      add_counts <<<"$lines 0 0 0"
    fi
  done < <(git ls-files --others --exclude-standard -- 'crates/*.rs')
fi

row() {
  local label=$1 added=$2 removed=$3 net=$(($2 - $3)) sign=+
  if [ "$net" -lt 0 ]; then sign=−; net=$((-net)); fi
  printf '%-8s +%d/−%d (%s%d)\n' "$label" "$added" "$removed" "$sign" "$net"
}
row non-test "${totals[0]}" "${totals[1]}"
row test "${totals[2]}" "${totals[3]}"
