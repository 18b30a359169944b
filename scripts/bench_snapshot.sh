#!/usr/bin/env bash
# Runs the engine benchmark suites and records them as one labelled run in
# BENCH_engine.json at the repo root (replacing any earlier run with the
# same label, so re-runs are idempotent). See README "Benchmark
# snapshots" for the file's schema.
#
# Usage: scripts/bench_snapshot.sh <label> [build_dir] [benchmark_filter]
#   label             e.g. "seed" or "pr1-interned-contexts"
#   build_dir         CMake build tree to take binaries from (default: build)
#   benchmark_filter  optional --benchmark_filter regex
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:?usage: bench_snapshot.sh <label> [build_dir] [benchmark_filter]}"
build="${2:-build}"
filter="${3:-}"

suites=(bench_engine bench_deletion bench_chains)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for suite in "${suites[@]}"; do
  args=("--benchmark_out=$tmp/$suite.json" --benchmark_out_format=json)
  if [ -n "$filter" ]; then args+=("--benchmark_filter=$filter"); fi
  "$build/bench/$suite" "${args[@]}"
done

python3 - "$label" "$tmp" "${suites[@]}" <<'EOF'
import json, os, sys

label, tmp = sys.argv[1], sys.argv[2]
suites = sys.argv[3:]
path = "BENCH_engine.json"
doc = {"schema": "hypo-bench-v1", "runs": []}
if os.path.exists(path):
    with open(path) as f:
        doc = json.load(f)
# Hardware context: timings from different machines do not compare.
cpu = "unknown"
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
run = {
    "label": label,
    "meta": {
        "nproc": os.cpu_count(),
        "cpu": cpu,
    },
    "suites": {},
}
for suite in suites:
    # A filter that matches nothing in a suite leaves an empty out file;
    # skip it rather than recording an unparseable entry.
    suite_path = os.path.join(tmp, suite + ".json")
    if os.path.getsize(suite_path) == 0:
        continue
    with open(suite_path) as f:
        run["suites"][suite] = json.load(f)
doc["runs"] = [r for r in doc.get("runs", []) if r.get("label") != label]
doc["runs"].append(run)
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("recorded run '%s' in %s" % (label, path))
EOF
