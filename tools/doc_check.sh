#!/bin/sh
# Doc honesty check for `dune build @doc-check`:
#  - every source-file path a documentation file cites (backtick-quoted
#    `lib/...ml`, `bin/...`, etc.) must still exist — a cited
#    `bench/X.exe` or `examples/X.exe` needs its `X.ml` — and so must
#    every cited repo directory (`lib/serve/`, `lib/te`), and
#  - every long CLI flag (`--foo-bar`) a documentation file mentions must
#    appear in the help corpus (the concatenated `--help=plain` output of
#    every souffle subcommand, plus the flags the bench driver parses by
#    hand), so the docs cannot describe flags the binaries dropped, and
#  - every backtick-quoted OCaml identifier (`Sim.run_mega`,
#    `Sim.Multi.launch`) must be defined — `let`/`and`/`val`/`external`,
#    `type`, or record field — in its module's source file, `lib/**/sim.ml`
#    or `bench/sim.ml` for `Sim`.  Modules with no such file (`Domain`,
#    `BENCH_x.json` read as module `BENCH_x`) are skipped.
# Usage: doc_check.sh ROOT HELP_CORPUS DOC...
set -eu
root=$1
corpus=$2
shift 2
status=0
if [ ! -f "$corpus" ]; then
  echo "doc-check: missing help corpus $corpus" >&2
  exit 1
fi
known_flags=$(grep -oE -- '--[a-z][a-z0-9-]+' "$corpus" | sort -u)
for doc in "$@"; do
  if [ ! -f "$doc" ]; then
    echo "doc-check: missing documentation file $doc" >&2
    status=1
    continue
  fi
  # backtick-quoted repo paths with an extension, e.g. `lib/te/expr.ml`
  cited=$(grep -oE '`(lib|bin|bench|test|tools|examples|docs)/[A-Za-z0-9_./-]+\.[A-Za-z]+`' "$doc" \
    | tr -d '`' | sort -u)
  for path in $cited; do
    # a cited executable (`bench/main.exe`) stands for its main module
    case $path in
      bench/*.exe | examples/*.exe) src=${path%.exe}.ml ;;
      *) src=$path ;;
    esac
    if [ ! -f "$root/$src" ]; then
      echo "doc-check: $doc cites $path, which does not exist" >&2
      status=1
    fi
  done
  # backtick-quoted repo directories, e.g. `lib/serve/` or `lib/te`
  dirs=$(grep -oE '`(lib|bin|bench|test|tools|examples|docs)(/[A-Za-z0-9_-]+)*/?`' "$doc" \
    | tr -d '`' | sort -u)
  for dir in $dirs; do
    if [ ! -e "$root/$dir" ]; then
      echo "doc-check: $doc cites $dir, which does not exist" >&2
      status=1
    fi
  done
  if [ -z "$cited" ]; then
    echo "doc-check: $doc cites no source paths (suspicious)" >&2
    status=1
  fi
  # long CLI flags, e.g. --batch-max (short flags like -m are too ambiguous)
  flags=$(grep -oE -- '--[a-z][a-z0-9-]+' "$doc" | sort -u)
  for flag in $flags; do
    if ! printf '%s\n' "$known_flags" | grep -qxF -- "$flag"; then
      echo "doc-check: $doc mentions $flag, absent from CLI help output" >&2
      status=1
    fi
  done
  # OCaml identifiers: the module's first component names the file, the
  # last component is the name that file must define
  idents=$(grep -oE '`[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_]*`' "$doc" \
    | tr -d '`' | sort -u)
  for ident in $idents; do
    modname=${ident%%.*}
    name=${ident##*.}
    file=$(printf '%s' "$modname" | cut -c1 | tr 'A-Z' 'a-z')$(printf '%s' "$modname" | cut -c2-).ml
    src=$(find "$root/lib" "$root/bench" -name "$file" -type f | head -n 1)
    [ -n "$src" ] || continue
    end="([^A-Za-z0-9_']|\$)"
    if ! grep -qE \
      -e "(^|[[:space:]])(let|and|val|external)([[:space:]]+rec)?[[:space:]]+$name$end" \
      -e "(^|[[:space:]])type([[:space:]]+nonrec)?[[:space:]]+(('[a-z]+|\([^)]*\))[[:space:]]+)?$name$end" \
      -e "(^[[:space:]]*|[{;][[:space:]]*)(mutable[[:space:]]+)?$name[[:space:]]*:" \
      "$src"; then
      echo "doc-check: $doc cites $ident, not defined in ${src#"$root"/}" >&2
      status=1
    fi
  done
done
exit $status
