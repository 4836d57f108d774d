#!/bin/sh
# Validates the BENCH_*.json accounting emitted by a bench run: every
# expected file must exist, parse, and carry a non-empty "gauges" object.
# A harness that silently stopped exporting its gauges (telemetry wiring
# dropped, JSI_BENCH_JSON ignored, registry renamed) fails the bench-smoke
# job instead of uploading an empty artifact.
#
# Usage: check_bench_json.sh <dir> <name>[:<gauge>,...]...
#   <dir>    directory the harnesses wrote into (JSI_BENCH_JSON)
#   <name>   BENCH_<name>.json basenames expected in <dir>
#   <gauge>  gauges that file must carry by name (recorded, not gated on
#            their value), e.g. interning:bench.interning.parallel_ratio
set -eu

DIR="$1"
shift
[ $# -gt 0 ] || { echo "check_bench_json.sh: no expected names given" >&2; exit 2; }

status=0
for spec in "$@"; do
  name="${spec%%:*}"
  required=""
  [ "$name" = "$spec" ] || required="${spec#*:}"
  file="$DIR/BENCH_$name.json"
  if [ ! -s "$file" ]; then
    echo "MISSING $file" >&2
    status=1
    continue
  fi
  if python3 - "$file" "$required" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
gauges = doc.get("gauges")
if not isinstance(gauges, dict) or not gauges:
    raise SystemExit(f"{sys.argv[1]}: empty or missing 'gauges'")
missing = [g for g in sys.argv[2].split(",") if g and g not in gauges]
if missing:
    raise SystemExit(f"{sys.argv[1]}: missing gauge(s) {', '.join(missing)}")
EOF
  then
    count=$(python3 -c "import json,sys; print(len(json.load(open(sys.argv[1]))['gauges']))" "$file")
    echo "OK      $file ($count gauges)"
  else
    echo "BAD     $file" >&2
    status=1
  fi
done
exit $status
