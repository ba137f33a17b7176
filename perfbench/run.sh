#!/usr/bin/env bash
# Builds the benchmark program and the serd daemon from this checkout, then
# runs one workload:
#   bash perfbench/run.sh --workload dense-estimate --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
if ! dune build --root . ./perfbench/serbench.exe ./bin/serd.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
# Outside a git checkout, a digest of the sources stands in for the commit.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short HEAD 2>/dev/null) ||
  commit="tree-$(find lib bin perfbench dune-project -type f \( -name '*.ml' -o -name '*.mli' -o -name dune -o -name dune-project \) |
    LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)"
exec ./_build/default/perfbench/serbench.exe --serd ./_build/default/bin/serd.exe --commit "$commit" "$@"
