#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 suite, as a ratchet.
#
# Builds the tree with `--coverage -O0`, runs every ctest test, merges
# the `gcov --json-format` records of every object file (a line counts
# as run if any translation unit ran it, so inline header code is
# credited wherever it executed) and prints one line per src/ file:
#
#     <missed lines> <path relative to the repo root>
#
# sorted by path, then a total on stderr. Death tests add nothing: a
# process that aborts writes no coverage data.
#
# Usage: scripts/coverage.sh [--floor FILE] [build-dir]
#   (default build dir: build-coverage)
#   --floor FILE  exit 1 if any file misses more lines than FILE (this
#                 script's own output format) allows; a file FILE does
#                 not list is allowed 0. The committed floor,
#                 tests/data/coverage_floor.txt, is the per-file maximum
#                 of several runs' output (a few lines run only in some
#                 runs); say in CHANGES.md why a count went up.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FLOOR=""
if [ "${1:-}" = "--floor" ]; then
    FLOOR="$2"
    shift 2
fi
BUILD="${1:-$ROOT/build-coverage}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null || exit 2
cmake --build "$BUILD" -j "$(nproc)" >/dev/null || exit 2

# Counters accumulate across runs; start from zero.
find "$BUILD" -name '*.gcda' -delete
if ! ctest --test-dir "$BUILD" -j "$(nproc)" >/dev/null; then
    echo "coverage: tier-1 tests failed" >&2
    exit 2
fi

python3 - "$ROOT" "$BUILD" "$FLOOR" <<'EOF'
import json
import os
import subprocess
import sys

root, build, floor_path = sys.argv[1:4]
src = os.path.join(root, "src") + os.sep
executable = {}  # path -> set of executable line numbers
executed = {}    # path -> set of line numbers run at least once

gcdas = sorted(os.path.join(d, name) for d, _, names in os.walk(build)
               for name in names if name.endswith(".gcda"))
# Each .gcda sits next to its .gcno; gcov prints one JSON document per
# data file, on one line.
gcov = subprocess.Popen(["gcov", "--json-format", "--stdout", *gcdas],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True)
for doc in gcov.stdout:
    if not doc.strip():
        continue
    record = json.loads(doc)
    cwd = record["current_working_directory"]
    for f in record["files"]:
        path = os.path.normpath(os.path.join(cwd, f["file"]))
        if not path.startswith(src):
            continue
        rel = os.path.relpath(path, root)
        lines = executable.setdefault(rel, set())
        ran = executed.setdefault(rel, set())
        for line in f["lines"]:
            lines.add(line["line_number"])
            if line["count"] > 0:
                ran.add(line["line_number"])
if gcov.wait() != 0:
    sys.exit("coverage: gcov failed")

missed = {rel: len(executable[rel] - executed[rel]) for rel in executable}
for rel in sorted(missed):
    print(missed[rel], rel)
total = sum(len(v) for v in executable.values())
run = sum(len(executed[rel]) for rel in executed)
print(f"coverage: {run} of {total} src/ lines run "
      f"({100.0 * run / max(total, 1):.1f}%)", file=sys.stderr)

if floor_path:
    floor = {}
    with open(floor_path) as fh:
        for row in fh:
            if row.strip():
                count, rel = row.split()
                floor[rel] = int(count)
    risen = [(rel, floor.get(rel, 0), n) for rel, n in sorted(missed.items())
             if n > floor.get(rel, 0)]
    for rel, was, now in risen:
        print(f"coverage: {rel} misses {now} lines, floor {was}",
              file=sys.stderr)
    sys.exit(1 if risen else 0)
EOF
