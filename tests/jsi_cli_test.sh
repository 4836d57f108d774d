#!/bin/sh
# Smoke test for the jsi CLI: every subcommand on generated data.
set -e
JSI="$1"
TMP="${TMPDIR:-/tmp}/jsi_cli_test.$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

"$JSI" gen github 50 > "$TMP/gh.jsonl"
test "$(wc -l < "$TMP/gh.jsonl")" = "50"

"$JSI" infer "$TMP/gh.jsonl" --stats > "$TMP/schema.txt" 2> "$TMP/stats.txt"
grep -q "base" "$TMP/schema.txt"
grep -q "records:" "$TMP/stats.txt"

"$JSI" paths "$TMP/gh.jsonl" | grep -q "base.repo.name"

# check: the inferred schema accepts its own data...
"$JSI" check "$TMP/gh.jsonl" --schema "$(cat "$TMP/schema.txt")" > "$TMP/check.txt"
grep -q "50/50 records match" "$TMP/check.txt"
# ...and a wrong schema fails with exit code 2.
if "$JSI" check "$TMP/gh.jsonl" --schema '{nope: Num}' > /dev/null 2>&1; then
  echo "expected check to fail"; exit 1
fi

"$JSI" export "$TMP/gh.jsonl" | grep -q '"\$schema"'
"$JSI" annotate "$TMP/gh.jsonl" | grep -q "first@"
"$JSI" gen wikidata 300 | "$JSI" analyze - | grep -q "claims"
"$JSI" expand "$TMP/gh.jsonl" --pattern '*.repo.name' | grep -q "base.repo.name"

echo '{a: Num}' > "$TMP/old.types"
echo '{a: (Num + Str)}' > "$TMP/new.types"
if "$JSI" diff "$TMP/old.types" "$TMP/new.types" > "$TMP/diff.txt"; then
  echo "expected diff to exit 2"; exit 1
fi
grep -q "kinds-broadened" "$TMP/diff.txt"
"$JSI" diff "$TMP/old.types" "$TMP/old.types" | grep -q "identical"

# repo: first add is v1, a drifting second batch bumps to v2.
"$JSI" gen twitter 30 > "$TMP/tw1.jsonl"
"$JSI" gen twitter 30 --seed 77 > "$TMP/tw2.jsonl"
"$JSI" repo add "$TMP/repo.txt" firehose "$TMP/tw1.jsonl" | grep -q "v1"
"$JSI" repo add "$TMP/repo.txt" firehose "$TMP/tw2.jsonl" > "$TMP/repo_add2.txt"
"$JSI" repo show "$TMP/repo.txt" | grep -q "firehose"
"$JSI" repo show "$TMP/repo.txt" firehose | grep -q "v1"

"$JSI" codegen "$TMP/gh.jsonl" --root PullRequest --namespace gh | grep -q "struct PullRequest"

# checkpoint/resume: a checkpointed run matches the plain run, and resuming
# a partial run from its checkpoint converges to the same schema.
"$JSI" infer "$TMP/gh.jsonl" > "$TMP/schema_plain.txt"
"$JSI" infer "$TMP/gh.jsonl" --checkpoint "$TMP/cp.txt" --checkpoint-every 7 \
  > "$TMP/schema_cp.txt"
cmp "$TMP/schema_plain.txt" "$TMP/schema_cp.txt"
test -f "$TMP/cp.txt"
head -20 "$TMP/gh.jsonl" > "$TMP/gh_head.jsonl"
"$JSI" infer "$TMP/gh_head.jsonl" --checkpoint "$TMP/cp2.txt" > /dev/null
"$JSI" infer "$TMP/gh.jsonl" --checkpoint "$TMP/cp2.txt" --resume --stats \
  > "$TMP/schema_resumed.txt" 2> "$TMP/resume_stats.txt"
cmp "$TMP/schema_plain.txt" "$TMP/schema_resumed.txt"
grep -q "resumed from" "$TMP/resume_stats.txt"
# a truncated checkpoint is refused, not silently mis-resumed.
head -c 40 "$TMP/cp2.txt" > "$TMP/cp_torn.txt"
if "$JSI" infer "$TMP/gh.jsonl" --checkpoint "$TMP/cp_torn.txt" --resume \
    > /dev/null 2>&1; then
  echo "expected resume from torn checkpoint to fail"; exit 1
fi
# budget flags: oversize lines are rejected under the strict policy and
# skipped under --skip-malformed, identically chunk-parallel over a stream.
if "$JSI" infer "$TMP/gh.jsonl" --max-line-bytes 64 > /dev/null 2>&1; then
  echo "expected --max-line-bytes 64 to fail on github records"; exit 1
fi
"$JSI" infer "$TMP/gh.jsonl" --max-line-bytes 64 --skip-malformed \
  > "$TMP/budget_direct.txt" 2> /dev/null
"$JSI" infer "$TMP/gh.jsonl" --max-line-bytes 64 --skip-malformed \
  --threads 4 --io stream > "$TMP/budget_par.txt" 2> /dev/null
cmp "$TMP/budget_direct.txt" "$TMP/budget_par.txt"
if "$JSI" infer "$TMP/gh.jsonl" --max-depth 2 > /dev/null 2>&1; then
  echo "expected --max-depth 2 to fail on nested records"; exit 1
fi

# leftover arguments are usage errors (exit 1), not silently ignored: an
# unknown or removed flag, a misspelt flag with its value, a second input.
# `jsi <command> <args>...` must exit 1.
expect_usage_error() {
  set +e
  "$JSI" "$@" > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" != 1 ]; then
    echo "expected usage error (exit 1) from: $*, got $rc"; exit 1
  fi
}
expect_usage_error infer "$TMP/gh.jsonl" --no-direct
expect_usage_error infer "$TMP/gh.jsonl" --thread 4
expect_usage_error infer "$TMP/gh.jsonl" "$TMP/gh_head.jsonl"
# ...and so on every other subcommand, which keeps its own arity.
expect_usage_error export "$TMP/gh.jsonl" --no-direct
expect_usage_error paths "$TMP/gh.jsonl" "$TMP/gh_head.jsonl" --bogus
expect_usage_error paths "$TMP/gh.jsonl" "$TMP/gh_head.jsonl"
expect_usage_error codegen "$TMP/gh.jsonl" --root
expect_usage_error annotate "$TMP/gh.jsonl" --stats
expect_usage_error diff "$TMP/old.types" "$TMP/new.types" "$TMP/old.types"
expect_usage_error expand "$TMP/gh.jsonl" extra --pattern '*.repo.name'
expect_usage_error repo show "$TMP/repo.txt" firehose extra
expect_usage_error gen github 5 --sed 3
expect_usage_error gen github five
expect_usage_error gen github 5 --seed x

# annotation: --annotate reports refinements, exports enriched JSON Schema,
# and produces identical output serial vs parallel.
printf '%s\n' '{"type":"a","x":1}' '{"type":"a","x":2}' '{"type":"b","y":"s"}' \
  > "$TMP/tagged.jsonl"
"$JSI" infer "$TMP/tagged.jsonl" --annotate --stats \
  > "$TMP/ann.txt" 2> "$TMP/ann_stats.txt"
grep -q 'discriminated by "type" into 2 variants' "$TMP/ann.txt"
grep -q "annotation:" "$TMP/ann_stats.txt"
"$JSI" infer "$TMP/gh.jsonl" --annotate --threads 1 > "$TMP/ann_serial.txt"
"$JSI" infer "$TMP/gh.jsonl" --annotate --threads 8 > "$TMP/ann_par.txt"
cmp "$TMP/ann_serial.txt" "$TMP/ann_par.txt"
"$JSI" export "$TMP/tagged.jsonl" --annotate > "$TMP/ann_export.txt"
grep -q '"oneOf"' "$TMP/ann_export.txt"
grep -q '"const"' "$TMP/ann_export.txt"
# annotation is incompatible with checkpointing: refused, not ignored.
if "$JSI" infer "$TMP/gh.jsonl" --annotate --checkpoint "$TMP/cp3.txt" \
    > /dev/null 2>&1; then
  echo "expected --annotate with --checkpoint to be refused"; exit 1
fi
# io modes: every input source produces the identical schema, and stdin
# streams through the bounded pipeline ('-' equals the file run).
"$JSI" infer "$TMP/gh.jsonl" --io mmap > "$TMP/io_mmap.txt"
"$JSI" infer "$TMP/gh.jsonl" --io read --read-ahead-mb 1 > "$TMP/io_read.txt"
"$JSI" infer "$TMP/gh.jsonl" --io stream --threads 4 > "$TMP/io_stream.txt"
"$JSI" infer - < "$TMP/gh.jsonl" > "$TMP/io_stdin.txt"
"$JSI" infer - --stats < "$TMP/gh.jsonl" > "$TMP/io_stdin_stats.txt" 2> /dev/null
cmp "$TMP/schema_plain.txt" "$TMP/io_mmap.txt"
cmp "$TMP/schema_plain.txt" "$TMP/io_read.txt"
cmp "$TMP/schema_plain.txt" "$TMP/io_stream.txt"
cmp "$TMP/schema_plain.txt" "$TMP/io_stdin.txt"
cmp "$TMP/schema_plain.txt" "$TMP/io_stdin_stats.txt"
# degraded-mode parity across sources: same skips, same report.
"$JSI" infer "$TMP/gh.jsonl" --max-line-bytes 64 --skip-malformed --io stream \
  > "$TMP/budget_stream.txt" 2> "$TMP/budget_stream_err.txt"
cmp "$TMP/budget_direct.txt" "$TMP/budget_stream.txt"
grep -q "skipped" "$TMP/budget_stream_err.txt"
# checkpointed runs ride the pipeline too, in every mode.
"$JSI" infer "$TMP/gh.jsonl" --io read --checkpoint "$TMP/cp_io.txt" \
  --checkpoint-every 7 > "$TMP/io_cp.txt"
cmp "$TMP/schema_plain.txt" "$TMP/io_cp.txt"
# seekable-only modes are refused on stdin; unknown modes are usage errors.
if "$JSI" infer - --io mmap < "$TMP/gh.jsonl" > /dev/null 2>&1; then
  echo "expected --io mmap on stdin to be refused"; exit 1
fi
if "$JSI" infer "$TMP/gh.jsonl" --io pwrite > /dev/null 2>&1; then
  echo "expected unknown --io mode to be a usage error"; exit 1
fi

# diff --data: variant drift between two annotated datasets exits 2.
printf '%s\n' '{"type":"a","x":1}' '{"type":"b","y":"s"}' '{"type":"c","z":true}' \
  > "$TMP/tagged2.jsonl"
if "$JSI" diff --data "$TMP/tagged.jsonl" "$TMP/tagged2.jsonl" \
    > "$TMP/ddiff.txt"; then
  echo "expected diff --data to exit 2"; exit 1
fi
grep -q "variant-added" "$TMP/ddiff.txt"
"$JSI" diff --data "$TMP/tagged.jsonl" "$TMP/tagged.jsonl" | grep -q "identical"

echo "jsi CLI smoke test passed"
