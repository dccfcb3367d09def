#!/usr/bin/env bash
# Docs/code lockstep gate: fails when the documentation drifts from the
# tree in either direction.
#
#   1. Every metric name the one renderer spells (the dotted string
#      literals in src/core/cluster_metrics.cc, AuroraCluster::
#      MetricsJson()) must appear in the DESIGN.md §5b catalogue, and
#      every catalogue row must still be rendered there. Per-subject
#      families (`replica.lag_lsns.<replica>`) are compared by their
#      static prefix.
#   2. Every bench/bench_*.cc binary must be mentioned in EXPERIMENTS.md
#      (the bench index + its section), and every `bench_*` name
#      EXPERIMENTS.md mentions must exist in bench/.
#   3. Every src/*/ module directory must have a row in the DESIGN.md §3
#      system inventory, and every inventory row's directory must still
#      exist in the tree.
#   4. Every option field the docs name — `XxxOptions::field`, or the last
#      member of an `options.<...>.field =` snippet — in README.md,
#      DESIGN.md or EXPERIMENTS.md must be declared in an `XxxOptions`
#      struct in src/, so a deleted knob cannot linger in the docs.
#   5. Every `XxxOptions` field in src/ must be assigned somewhere outside
#      its declaring header (src/, tests/, bench/, examples/, tools/,
#      perfbench/): a field nothing sets is a file-local constant in the
#      .cc that reads it, not a knob. Paper geometry lives in
#      src/quorum/geometry.h.
#   6. Every public member function declared in a src/ header class must
#      be named somewhere besides its declaration and its out-of-line
#      definition (src/, tests/, bench/, examples/, tools/, perfbench/):
#      an accessor nothing calls is code to read and keep, not API.
#   7. Every request to a storage node goes through the one call path,
#      storage::Call (src/storage/call.h): no code in src/ calls a
#      StorageNode RPC handler (`->HandleX(` / `.HandleX(` for each
#      `void HandleX(` in src/storage/storage_node.h) directly, so every
#      reply crosses the simulated return wire. There are no exceptions.
#      Tests and benches may call handlers directly.
#   8. The writer and the snapshot reader descend the B+-tree only
#      through its one descent step, BTree::WithPath (src/engine/btree.h):
#      no `FindPath(` or `FindPathSync(` call in src/engine/db_instance.cc
#      or src/engine/snapshot_reader.cc, so every row write, commit
#      record, compensation and point read faults its path in the same
#      way.
#
# Run from anywhere; registered as a ctest so every suite run enforces it.

set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# ---- 1. metric catalogue ------------------------------------------------

# Rendered names: each dotted string literal in the renderer; a trailing
# dot (or a `"." + suffix` concatenation) marks a per-subject family.
metrics_src="src/core/cluster_metrics.cc"
src_metrics="$(
  grep -oP '"[a-z][a-z0-9_]*(\.[a-z0-9_]+)+\.?"' "${metrics_src}" |
    tr -d '"' | sed 's/\.$//' | sort -u
)"
if [[ -z "${src_metrics}" ]]; then
  echo "docs_check: no metric names found in ${metrics_src}" >&2
  exit 1
fi

# Catalogue rows: first backticked column of the table between the
# "Metrics" and "Invariant auditor" headings; `.<subject>` suffixes
# reduce to the same static prefix the renderer spells.
doc_metrics="$(
  awk '/^### Metrics/,/^### Invariant auditor/' DESIGN.md |
    grep -oP '^\| `\K[^`]+' | sed 's/\.<[^>]*>$//' | sort -u
)"

undocumented="$(comm -23 <(echo "${src_metrics}") <(echo "${doc_metrics}"))"
stale="$(comm -13 <(echo "${src_metrics}") <(echo "${doc_metrics}"))"

if [[ -n "${undocumented}" ]]; then
  echo "docs_check: metrics rendered by ${metrics_src} but missing from DESIGN.md §5b:" >&2
  echo "${undocumented}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${stale}" ]]; then
  echo "docs_check: metrics in the DESIGN.md §5b catalogue but not rendered by ${metrics_src}:" >&2
  echo "${stale}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 2. bench index -----------------------------------------------------

tree_benches="$(
  for f in bench/bench_*.cc; do
    basename "${f}" .cc
  done | sort -u
)"

# `scripts/bench_*.sh` helpers (e.g. the perf gate) are not bench
# binaries; the lookbehind keeps them out of the cross-check.
doc_benches="$(
  grep -oP '(?<!scripts/)bench_[a-z0-9_]+' EXPERIMENTS.md | sort -u
)"

missing_doc="$(comm -23 <(echo "${tree_benches}") <(echo "${doc_benches}"))"
ghost_doc="$(comm -13 <(echo "${tree_benches}") <(echo "${doc_benches}"))"

if [[ -n "${missing_doc}" ]]; then
  echo "docs_check: bench binaries with no EXPERIMENTS.md entry:" >&2
  echo "${missing_doc}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${ghost_doc}" ]]; then
  echo "docs_check: EXPERIMENTS.md mentions bench binaries not in bench/:" >&2
  echo "${ghost_doc}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 3. module inventory ------------------------------------------------

tree_modules="$(
  for d in src/*/; do
    echo "${d%/}"
  done | sort -u
)"

# Inventory rows: the backticked `src/...` Directory column of the §3
# table ("## 3. System inventory" up to the next "## " heading).
doc_modules="$(
  awk '/^## 3\. System inventory/{flag=1; next} /^## /{flag=0} flag' DESIGN.md |
    grep -oP '^\|[^|]*\| `\Ksrc/[^`]+' | sort -u
)"

missing_inv="$(comm -23 <(echo "${tree_modules}") <(echo "${doc_modules}"))"
stale_inv="$(comm -13 <(echo "${tree_modules}") <(echo "${doc_modules}"))"

if [[ -n "${missing_inv}" ]]; then
  echo "docs_check: src/ modules with no DESIGN.md §3 inventory row:" >&2
  echo "${missing_inv}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${stale_inv}" ]]; then
  echo "docs_check: DESIGN.md §3 inventory rows whose directory is gone:" >&2
  echo "${stale_inv}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 4. option fields named in the docs ---------------------------------

# Declared fields as `header Struct::field`: top-level member declarations
# inside each `struct XxxOptions { ... };` body in src/ headers (comments
# dropped; a declaration is `type name` followed by `=`, `;` or `{`).
declared_with_header="$(
  find src -name '*.h' -print0 | xargs -0 awk '
    FNR == 1 { name = "" }
    name == "" && match($0, /^[[:space:]]*struct [A-Za-z0-9_]*Options[[:space:]]*\{/) {
      name = $0
      sub(/^[[:space:]]*struct /, "", name)
      sub(/[[:space:]]*\{.*/, "", name)
      depth = 1
      next
    }
    name != "" {
      line = $0
      sub(/\/\/.*/, "", line)
      if (depth == 1 &&
          match(line, /^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>,*& ]*[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(=|;|\{)/)) {
        decl = substr(line, RSTART, RLENGTH)
        sub(/[[:space:]]*(=|;|\{)$/, "", decl)
        n = split(decl, parts, /[[:space:]]+/)
        print FILENAME " " name "::" parts[n]
      }
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
      if (depth <= 0) name = ""
    }
  ' | sort -u
)"
declared_options="$(echo "${declared_with_header}" | cut -d' ' -f2 | sort -u)"
declared_fields="$(echo "${declared_options}" | sed 's/.*:://' | sort -u)"

doc_options="$(
  grep -ohP '\b[A-Z][A-Za-z0-9]*Options::[A-Za-z_][A-Za-z0-9_]*' \
    README.md DESIGN.md EXPERIMENTS.md | sort -u
)"
doc_snippet_fields="$(
  grep -ohP '\boptions(\.[A-Za-z_][A-Za-z0-9_]*)+(?=\s*=(?!=))' \
    README.md DESIGN.md EXPERIMENTS.md | sed 's/.*\.//' | sort -u
)"

ghost_options="$(comm -23 <(echo "${doc_options}") <(echo "${declared_options}"))"
ghost_fields="$(comm -23 <(echo "${doc_snippet_fields}") <(echo "${declared_fields}"))"

if [[ -n "${ghost_options}" ]]; then
  echo "docs_check: docs name option fields not declared in src/:" >&2
  echo "${ghost_options}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${ghost_fields}" ]]; then
  echo "docs_check: docs assign options.<...>.<field> with no such Options field in src/:" >&2
  echo "${ghost_fields}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 5. no unset options ------------------------------------------------

# A field counts as set when some file other than its declaring header
# assigns it: `.field =` or `->field =`, also through a nested path such
# as `.db.cache_pages =` (which sets both `db` and `cache_pages`).
# Designated initializers match the same way. The match is by name, so
# the rule is a floor: a field passes when any same-named member is
# assigned anywhere (a nested `disk` or `driver` config passes on the
# strength of another struct's `.disk =` or `.driver =`).
unset_options=""
n_fields=0
while read -r header qualified; do
  [[ -n "${header}" ]] || continue
  n_fields=$((n_fields + 1))
  field="${qualified##*::}"
  setters="$(
    grep -rlP --include='*.h' --include='*.cc' --include='*.cpp' \
      "(\.|->)${field}(\.\w+)*\s*=[^=]" \
      src tests bench examples tools perfbench | grep -vxF "${header}" || true
  )"
  [[ -n "${setters}" ]] || unset_options+="${qualified}"$'\n'
done <<<"${declared_with_header}"

if [[ -n "${unset_options}" ]]; then
  n_unset="$(printf '%s' "${unset_options}" | grep -c .)"
  echo "docs_check: ${n_unset} of ${n_fields} option fields are set by nothing outside their header (make each a constant in the .cc that reads it):" >&2
  printf '%s' "${unset_options}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 6. no uncalled public member functions -----------------------------

# Declarations as `file:line name`: a line at a class body's top level,
# in a public section, outside any open parenthesis, shaped `<type> Name(`
# (constructors, destructors and operators skipped; a type with an
# unclosed `<` is a std::function member, not a method). The awk tracks
# braces and parentheses only, so the parse is a regex, not a compiler.
public_methods="$(
  find src -name '*.h' -print0 | xargs -0 awk '
    FNR == 1 { depth = 0; parens = 0; n = 0 }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      if (n > 0 && depth == body[n] && parens == 0) {
        if (line ~ /^[[:space:]]*public:/) access[n] = "public"
        else if (line ~ /^[[:space:]]*(private|protected):/) access[n] = "private"
        else if (access[n] == "public" &&
                 line !~ /^[[:space:]]*(using|typedef|friend|return|template)[[:space:]]/ &&
                 match(line, /^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>,*& ]*[[:space:]*&]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*\(/)) {
          decl = substr(line, RSTART, RLENGTH)
          sub(/[[:space:]]*\($/, "", decl)
          type = decl
          sub(/[A-Za-z_][A-Za-z0-9_]*$/, "", type)
          name = substr(decl, length(type) + 1)
          if (gsub(/</, "<", type) == gsub(/>/, ">", type) &&
              name != cls[n] && type !~ /operator/ &&
              name !~ /^(if|for|while|switch|return|sizeof|static_assert)$/)
            print FILENAME ":" FNR " " name
        }
      }
      if (parens == 0 &&
          match(line, /^[[:space:]]*(class|struct)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[^;]*\{/)) {
        head = line
        sub(/^[[:space:]]*(class|struct)[[:space:]]+/, "", head)
        kind = (line ~ /^[[:space:]]*class/) ? "private" : "public"
        sub(/[^A-Za-z0-9_].*/, "", head)
        n++
        cls[n] = head
        access[n] = kind
        body[n] = depth + 1
      }
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
      parens += gsub(/\(/, "(", line) - gsub(/\)/, ")", line)
      while (n > 0 && depth < body[n]) n--
    }
  ' | sort -u
)"

# A name is used when some line names it that is neither one of its
# declarations nor an unindented `Class::Name(` definition. The match is
# by name, so the rule is a floor: a method passes when a same-named
# member of any class, or a comment, mentions it.
uncalled=""
n_methods=0
for name in $(echo "${public_methods}" | cut -d' ' -f2 | sort -u); do
  n_methods=$((n_methods + 1))
  decl_lines="$(echo "${public_methods}" | awk -v n="${name}" '$2 == n { print $1 ":" }')"
  uses="$(
    grep -rnwP --include='*.h' --include='*.cc' --include='*.cpp' \
      "${name}" src tests bench examples tools perfbench |
      grep -vF "${decl_lines}" |
      grep -vP "^[^:]+:[0-9]+:\S.*::${name}\s*\(" || true
  )"
  [[ -n "${uses}" ]] || uncalled+="$(echo "${decl_lines}" | sed 's/:$//' | tr '\n' ' ')${name}"$'\n'
done

if [[ -n "${uncalled}" ]]; then
  echo "docs_check: public member functions named nowhere outside their declaration and definition (delete them):" >&2
  printf '%s' "${uncalled}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 7. one call path to a storage node ---------------------------------

# Each direct handler call as `file:line Class::Function Handler`, where
# the function is the nearest unindented `Class::Function(` definition
# above the call (a regex, not a compiler, like rule 6). Any such call
# fails the rule.
handlers="$(
  grep -oP '^\s+void \KHandle\w+(?=\()' src/storage/storage_node.h |
    sort -u | paste -sd'|'
)"
if [[ -z "${handlers}" ]]; then
  echo "docs_check: no StorageNode handlers found in src/storage/storage_node.h" >&2
  exit 1
fi
handler_calls="$(
  find src \( -name '*.h' -o -name '*.cc' \) -print0 | sort -z |
    xargs -0 awk -v handlers="^(${handlers})$" '
      FNR == 1 { fn = "" }
      /^[A-Za-z]/ && match($0, /[A-Za-z0-9_]+::[A-Za-z0-9_]+\(/) {
        fn = substr($0, RSTART, RLENGTH - 1)
      }
      {
        line = $0
        sub(/\/\/.*/, "", line)
        while (match(line, /(->|\.)Handle[A-Za-z0-9_]*[[:space:]]*\(/)) {
          name = substr(line, RSTART, RLENGTH)
          sub(/^(->|\.)/, "", name)
          sub(/[[:space:]]*\($/, "", name)
          if (name ~ handlers) print FILENAME ":" FNR " " fn " " name
          line = substr(line, RSTART + RLENGTH)
        }
      }'
)"
if [[ -n "${handler_calls}" ]]; then
  echo "docs_check: src/ calls a StorageNode handler outside storage::Call (src/storage/call.h):" >&2
  echo "${handler_calls}" | sed 's/^/  /' >&2
  fail=1
fi

# ---- 8. one descent step for the writer and the snapshot reader --------

direct_descents="$(
  for file in src/engine/db_instance.cc src/engine/snapshot_reader.cc; do
    sed 's|//.*||' "${file}" | grep -nP '\bFindPath(Sync)?\s*\(' |
      sed "s|^|${file}:|" || true
  done
)"
if [[ -n "${direct_descents}" ]]; then
  echo "docs_check: the writer or the snapshot reader descends the tree outside BTree::WithPath:" >&2
  echo "${direct_descents}" | sed 's/^/  /' >&2
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  echo "docs_check: FAILED — update DESIGN.md §3/§5b / EXPERIMENTS.md / README.md (or the code) so they agree" >&2
  exit 1
fi

n_metrics="$(echo "${src_metrics}" | wc -l)"
n_benches="$(echo "${tree_benches}" | wc -l)"
n_modules="$(echo "${tree_modules}" | wc -l)"
n_options="$(cat <(echo "${doc_options}") <(echo "${doc_snippet_fields}") | grep -c . || true)"
echo "docs_check: OK (${n_metrics} metrics, ${n_benches} bench binaries, ${n_modules} modules, ${n_options} documented option fields in lockstep, ${n_fields} option fields all set somewhere, ${n_methods} public member function names all used, no direct storage-handler call in src/, one tree descent step)"
