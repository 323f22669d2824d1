# Build (release profile) and run the end-to-end benchmark from the
# repository root, keeping every file the build and the run write inside
# the checkout: dune and the compilers put their temporary files under
# TMPDIR, so it points into _build/.
#
#   bash bench/e2e/run.sh --workload eco --seed 3 --seconds 15 --trace 0
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
mkdir -p _build/e2e/tmp
export TMPDIR="$root/_build/e2e/tmp"
exec dune exec --profile release --cache disabled --display quiet bench/e2e/e2e.exe -- "$@"
