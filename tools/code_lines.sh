#!/bin/sh
# Prints the repository's code-line count: git-tracked .cpp and .hpp lines
# under src/ and tools/ that are neither blank nor // comments. Run it from
# anywhere inside a git checkout:
#
#   sh tools/code_lines.sh
#
# Only committed or staged files count (git ls-files), so a new file shows
# up once it is added.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -z -- 'src/*.cpp' 'src/*.hpp' 'tools/*.cpp' 'tools/*.hpp' |
  xargs -0 cat | grep -cv '^[[:space:]]*\(//.*\)\?$'
