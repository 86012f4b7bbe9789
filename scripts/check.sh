#!/usr/bin/env bash
# Full local verification: configure, build, run the test suite, print
# the figure-reproduction tables (dpgen-bench --table) after checking that
# every EXPERIMENTS.md section names a registered table, then a flake leg
# and extra build flavours —
#   * the timing-sensitive suites repeated 20 times (flake leg),
#   * ThreadSanitizer over the concurrency-heavy suites (the runtime,
#     comm layer and record rings are lock-free on their hot paths),
#   * AddressSanitizer + UndefinedBehaviorSanitizer over the suites that
#     index tile buffers with raw arithmetic (interpreter, fuzz, recovery,
#     tiling, codegen passes),
#   * a -DDPGEN_TRACE=0 build proving the tracing macro path compiles
#     and the suite still passes with every span compiled out,
#   * a Release (-O3 -DNDEBUG) build of the whole tree with -Werror: the
#     DriverInstantiation, EndToEnd and Codegen tests, and a bench smoke,
#     the HOTPATH table (dpgen-bench --table=HOTPATH),
#   * the continuous-benchmarking gate: dpgen-bench runs a quick subset,
#     validates the emitted dpgen.bench.v1 document, archives the run,
#     gates it against the per-machine auto-baseline (established on the
#     first run), and self-tests that an injected 4x slowdown fires.
# Usage: scripts/check.sh [--quick]   (--quick skips benches and flavours)
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

echo "==== analyzer smoke (--report + dpgen-analyze + schema validation)"
# Two bundled problems through the full report pipeline: engine run with
# --report/--trace-out, the exported trace re-ingested by dpgen-analyze,
# and every produced report validated against tools/report_schema.json.
rm -rf build/analyze-smoke && mkdir -p build/analyze-smoke
for p in "bandit2:12" "lcs:64,64"; do
  name="${p%%:*}"; params="${p#*:}"
  build/tools/dpgen-analyze --problem="$name" --params="$params" \
    --ranks=2 --threads=2 \
    --report="build/analyze-smoke/${name}.json" \
    --trace-out="build/analyze-smoke/${name}.trace.json" > /dev/null
  build/tools/dpgen-analyze --trace="build/analyze-smoke/${name}.trace.json" \
    --problem="$name" --params="$params" \
    --report="build/analyze-smoke/${name}.retrace.json" > /dev/null
  build/tools/dpgen-analyze \
    --validate="build/analyze-smoke/${name}.json" \
    --schema=tools/report_schema.json
  build/tools/dpgen-analyze \
    --validate="build/analyze-smoke/${name}.retrace.json" \
    --schema=tools/report_schema.json
done
build/tools/dpgen-analyze --problem=lcs --params=64,64 --sim \
  --nodes=4 --cores=2 --report=build/analyze-smoke/lcs.sim.json > /dev/null
build/tools/dpgen-analyze --validate=build/analyze-smoke/lcs.sim.json \
  --schema=tools/report_schema.json

echo "==== live-monitor smoke (dpgen-top + events schema)"
# Balanced engine run through the run monitor: the event log must validate
# against tools/events_schema.json, contain at least one heartbeat, and —
# since the workload is balanced — flag no stragglers.
rm -rf build/monitor-smoke && mkdir -p build/monitor-smoke
build/tools/dpgen-top --problem=lcs --params=96,96 --ranks=2 --threads=2 \
  --interval=0.005 --events=build/monitor-smoke/lcs.jsonl --check \
  | tee build/monitor-smoke/lcs.summary
awk '{ for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] } }
     END { exit !(v["heartbeats"] >= 1 && v["stragglers"] == 0) }' \
  build/monitor-smoke/lcs.summary
build/tools/dpgen-analyze --events=build/monitor-smoke/lcs.jsonl \
  --schema=tools/events_schema.json > /dev/null
# Skewed simulated fleet: the online detector must name the slowed node.
build/tools/dpgen-top --problem=lcs --params=96,96 --sim --nodes=2 \
  --cores=2 --slow-node=1:4 --events=build/monitor-smoke/skew.jsonl \
  --check 2> build/monitor-smoke/skew.err
grep -q "straggler: node 1" build/monitor-smoke/skew.err
build/tools/dpgen-analyze --events=build/monitor-smoke/skew.jsonl \
  --schema=tools/events_schema.json > /dev/null
echo "live-monitor smoke passed"

echo "==== continuous-profiling smoke (sampler + cost model + cross-check)"
# A profiled engine run must emit a dpgen.profile.v1 document that (a)
# validates through the schema registry (no --schema: resolved from the
# document's own id), (b) prints a cost table, (c) cross-checks busy-time
# shares within 15 points of the span-attribution report (exit 1 on
# mismatch), and (d) renders a non-empty flame view.  Works without
# perf-event access: the profiler degrades to the cputime channel on its
# own.  512x512 at ~5 kHz gives enough samples (>100) that the shares
# are statistically stable.
rm -rf build/profile-smoke && mkdir -p build/profile-smoke
build/tools/dpgen-analyze --problem=lcs --params=512,512 \
  --ranks=2 --threads=2 --profile-hz=5003 \
  --profile-out=build/profile-smoke/lcs.prof.json \
  --report=build/profile-smoke/lcs.report.json > /dev/null
build/tools/dpgen-analyze --validate=build/profile-smoke/lcs.prof.json
build/tools/dpgen-analyze --profile=build/profile-smoke/lcs.prof.json \
  --report=build/profile-smoke/lcs.report.json \
  --flame=build/profile-smoke/lcs.flame.html
test -s build/profile-smoke/lcs.flame.html
# Synthetic profile from the simulator's DES time, same document format.
build/tools/dpgen-analyze --problem=lcs --params=64,64 --sim --nodes=4 \
  --cores=2 --report=build/profile-smoke/sim.report.json \
  --profile-out=build/profile-smoke/sim.prof.json > /dev/null
build/tools/dpgen-analyze --validate=build/profile-smoke/sim.prof.json
# dpgen-top's live profiler columns ride the same counters.
build/tools/dpgen-top --problem=lcs --params=96,96 --ranks=2 --threads=2 \
  --profile --check | grep -q "profile samples="
echo "continuous-profiling smoke passed"

echo "==== msgtrace smoke (causal message tracing + conservation)"
# Two bundled problems with message tracing on: each dpgen.msgtrace.v1
# document must validate through the schema registry (no --schema: resolved
# from the document's own id) and pass the conservation re-check (every
# assigned sequence number delivered, per-link queueing buckets summing to
# the end-to-end latency — exit 1 otherwise).  The lcs leg also renders the
# per-message waterfall.
rm -rf build/msgtrace-smoke && mkdir -p build/msgtrace-smoke
for p in "lcs:96,96" "edit_distance:96,96"; do
  name="${p%%:*}"; params="${p#*:}"
  build/tools/dpgen-analyze --problem="$name" --params="$params" \
    --ranks=2 --threads=2 --report="build/msgtrace-smoke/${name}.report.json" \
    --msgtrace-out="build/msgtrace-smoke/${name}.mt.json" > /dev/null
  build/tools/dpgen-analyze --validate="build/msgtrace-smoke/${name}.mt.json"
  build/tools/dpgen-analyze --validate="build/msgtrace-smoke/${name}.report.json"
done
build/tools/dpgen-analyze --msgtrace=build/msgtrace-smoke/lcs.mt.json \
  --waterfall=build/msgtrace-smoke/lcs.waterfall.html
test -s build/msgtrace-smoke/lcs.waterfall.html
build/tools/dpgen-analyze --msgtrace=build/msgtrace-smoke/edit_distance.mt.json
# The simulator's DES emits the same document (lossless delivery, so
# conservation must account by construction).
build/tools/dpgen-analyze --problem=lcs --params=96,96 --sim --nodes=2 \
  --cores=2 --report=build/msgtrace-smoke/sim.report.json \
  --msgtrace-out=build/msgtrace-smoke/sim.mt.json > /dev/null
build/tools/dpgen-analyze --validate=build/msgtrace-smoke/sim.mt.json
build/tools/dpgen-analyze --msgtrace=build/msgtrace-smoke/sim.mt.json
# Chaos leg: a seeded drop: plan loses messages on purpose; the fault
# plan's counters flow into the document as expected drops, so the
# conservation checker must still exit green ("accounted", not "lost").
build/tools/dpgen-analyze --problem=lcs --params=96,96 --ranks=2 \
  --threads=2 --faults='drop:1>0@3' \
  --report=build/msgtrace-smoke/drop.report.json \
  --msgtrace-out=build/msgtrace-smoke/drop.mt.json > /dev/null
build/tools/dpgen-analyze --msgtrace=build/msgtrace-smoke/drop.mt.json
python3 - build/msgtrace-smoke/drop.mt.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["expected_drops"] < 1:
    sys.exit("chaos msgtrace leg: the drop: plan fired no drops")
if not doc["conservation"]["accounted"]:
    sys.exit("chaos msgtrace leg: conservation did not account")
EOF
echo "msgtrace smoke passed"

echo "==== chaos smoke (fault injection + checkpoint restart)"
# A seeded mid-run rank kill through dpgen-top: the run must recover via a
# checkpoint restart (exactly one failure/restart pair in the summary), the
# flushed checkpoint must validate against tools/checkpoint_schema.json,
# and the event log — now containing rank_failed + restart events — must
# still validate against the events schema.
rm -rf build/chaos-smoke && mkdir -p build/chaos-smoke
build/tools/dpgen-top --problem=lcs --params=96,96 --ranks=2 --threads=2 \
  --interval=0.005 --faults=kill:1@12 \
  --checkpoint=build/chaos-smoke/kill.ckpt.json \
  --events=build/chaos-smoke/kill.jsonl --check \
  | tee build/chaos-smoke/kill.summary
awk '{ for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] } }
     END { exit !(v["rank_failures"] == 1 && v["restarts"] == 1) }' \
  build/chaos-smoke/kill.summary
build/tools/dpgen-analyze --validate=build/chaos-smoke/kill.ckpt.json \
  --schema=tools/checkpoint_schema.json
build/tools/dpgen-analyze --events=build/chaos-smoke/kill.jsonl \
  --schema=tools/events_schema.json > /dev/null
# A slowed rank is chaos the run must absorb WITHOUT recovery machinery:
# no failures, no restarts, no straggler mistaken for a stall.
build/tools/dpgen-top --problem=lcs --params=96,96 --ranks=2 --threads=2 \
  --interval=0.005 --faults=slow:1@3 \
  --events=build/chaos-smoke/slow.jsonl --check \
  | tee build/chaos-smoke/slow.summary
awk '{ for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] } }
     END { exit !(v["rank_failures"] == 0 && v["restarts"] == 0 \
                  && v["heartbeats"] >= 1) }' \
  build/chaos-smoke/slow.summary
build/tools/dpgen-analyze --events=build/chaos-smoke/slow.jsonl \
  --schema=tools/events_schema.json > /dev/null
echo "chaos smoke passed"

echo "==== vectorization smoke (codegen pass pipeline)"
# The canonicalize pass exists to make the innermost loop vectorizable at
# the baseline ISA: the interior segment's guarded loads fold to
# unconditional ones, and GCC must report every loop on an emitted
# "dpgen:vec-inner" marker line vectorized at plain -O3 (no -march=native —
# wide ISAs mask-vectorize even the unsplit loop, which would hide a
# canonicalization regression).  Clang has no -fopt-info; probe the flag
# and skip (with a notice) on non-GCC toolchains.
CXX_BIN="${CXX:-c++}"
rm -rf build/vec-smoke && mkdir -p build/vec-smoke
cat > build/vec-smoke/trellis.spec <<'EOF'
problem trellis
params T S
vars t s
array V double

constraints {
  t >= 0
  t <= T
  s >= 0
  s <= S
}

dep up_left = (1, -1)
dep up = (1, 0)
dep up_right = (1, 1)

loadbalance t
tilewidths 1 4096

center {{{
double dp_v = 0.25 + (double)(int)((3*t + 5*s) & 7) * 0.125;
if (is_valid_up_left) dp_v += 0.3125 * V[loc_up_left];
if (is_valid_up) dp_v += 0.375 * V[loc_up];
if (is_valid_up_right) dp_v += 0.28125 * V[loc_up_right];
V[loc] = dp_v;
}}}
EOF
build/examples/generate_program --passes=canonicalize \
  build/vec-smoke/trellis.spec build/vec-smoke/trellis.cpp > /dev/null
if echo 'int main(){}' | "$CXX_BIN" -x c++ - -fopt-info-vec \
    -o build/vec-smoke/probe 2> /dev/null; then
  # Every marker: the partial-tile interior and the full-tile nest.
  vec_lines="$(grep -n 'dpgen:vec-inner' build/vec-smoke/trellis.cpp \
    | cut -d: -f1 | tr '\n' ' ')"
  [[ -n "$vec_lines" ]]
  "$CXX_BIN" -std=c++20 -O3 -fopenmp -DDPGEN_RUNTIME_USE_OPENMP -Isrc \
    -fopt-info-vec -c build/vec-smoke/trellis.cpp \
    -o build/vec-smoke/trellis.o 2> build/vec-smoke/vec.log
  for vec_line in $vec_lines; do
    grep -q ":${vec_line}:.*loop vectorized" build/vec-smoke/vec.log || {
      echo "ERROR: canonicalized interior loop (line ${vec_line}) did not" \
           "vectorize at -O3; -fopt-info-vec output:" >&2
      cat build/vec-smoke/vec.log >&2
      exit 1
    }
  done
  echo "vectorization smoke passed (interior loops at lines ${vec_lines% })"
else
  echo "vectorization smoke skipped (compiler lacks -fopt-info-vec)"
fi

if [[ "${1:-}" != "--quick" ]]; then
  echo "==== EXPERIMENTS.md drift (every section names a registered table)"
  # A "## <ID>" section must name a table dpgen-bench prints; sections
  # reproduced by a test suite instead cite their tests/ file.
  tables="$(build/tools/dpgen-bench --list | awk '$1 == "table" { print $2 }')"
  grep -E '^## [A-Z0-9-]+ ' EXPERIMENTS.md | grep -v 'tests/' |
    awk '{ print $2 }' | while read -r id; do
      grep -qx "$id" <<< "$tables" || {
        echo "ERROR: EXPERIMENTS.md section '$id' names no dpgen-bench" \
             "table" >&2
        exit 1
      }
    done

  echo "==== figure tables (dpgen-bench --table)"
  build/tools/dpgen-bench --table

  echo "==== flake leg (timing-sensitive suites, 20 repeats)"
  # These suites assert on clock stamps, samplers and thread interleavings
  # (LaunchConcurrency: two whole runs at once in one process); a failure
  # in any of 20 repeats is a flake to fix at its source.
  ctest --test-dir build -j"$(nproc)" \
    -R 'MsgTrace|Monitor|Chaos|Profile|LaunchConcurrency' \
    --repeat until-fail:20

  echo "==== ThreadSanitizer pass (minimpi / runtime / obs / engine)"
  # OpenMP is disabled in this flavour: libgomp is not TSan-instrumented,
  # so its pool-thread barriers are invisible and every cross-region
  # access reports as a false race.  Workers fall back to std::thread,
  # which exercises the same driver loop fully instrumented.
  cmake -B build-tsan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  # test_codegen_passes rides along: its end-to-end cases compile the
  # generated programs with the flavour's flags (std::thread workers,
  # TSan-instrumented) and run them 2-rank/2-thread, so the generated
  # driver loop itself gets a race check.
  # test_faults rides along: the chaos suite replays seeded kill/drop/
  # dup/delay/slow plans with every rank fully instrumented, so the
  # restart path (transport poisoning, checkpoint seeding, re-balance)
  # gets a race check too.  The 100-iteration soak target is excluded —
  # the 12-iteration in-suite soak already covers it at TSan speed.
  # test_profile rides along: the sampler churn test races the SIGPROF
  # handler against frame pushes, tile counter windows and stop()
  # aggregation with every thread instrumented.
  # test_msgtrace rides along: its end-to-end cases stamp message
  # envelopes from every worker thread over the sharded tile table, so
  # the lifecycle stamps and per-thread record rings get a race check.
  # test_launch rides along next to the chaos suite: the restart loop
  # lives in runtime::launch, its throwing-run case unwinds every rank
  # through the run's obs::Session and thread bindings, and its
  # concurrent-launch case runs two sessions side by side.
  # test_recovery rides along: its 2- and 3-thread engine runs record
  # DecisionLog bytes through the kernel's run entry on every worker.
  cmake --build build-tsan --target test_minimpi test_runtime test_obs \
    test_engine test_hotpath test_monitor test_codegen_passes test_faults \
    test_profile test_msgtrace test_launch test_recovery
  ctest --test-dir build-tsan --output-on-failure \
    -R 'MiniMpi|Runtime|Obs|Engine|Tracer|Metrics|Export|Hotpath|Monitor|CodegenPasses|Fault|Chaos|Checkpoint|Launch|TableState|Profile|SchemaRegistry|MsgTrace|Recovery|DecisionMatrix|SerialReference' \
    -E 'ChaosSoak.Replay100'

  echo "==== AddressSanitizer + UBSan pass (engine / fuzz / recovery / tiling / hot path / checkpoint resume)"
  # The interpreter's row walk and the pack/unpack runs index tile buffers
  # with raw arithmetic, so these suites run with out-of-bounds and
  # undefined-behaviour checks; test_codegen_passes compiles its generated
  # programs with the same flags (DPGEN_EXTRA_CXX_FLAGS).  test_launch
  # feeds hostile flag values through the launcher's parsers.  test_hotpath
  # drives the worker loop's reused tile buffer and its pooled payload and
  # wire buffers.  test_tiling's OwnerTable cases index the owner box with
  # raw arithmetic, and test_faults' checkpoint cases decode outside input
  # (the resume checks run pack on a scratch buffer).
  asan_tests="test_engine test_fuzz test_recovery test_tiling test_codegen_passes test_launch test_hotpath"
  cmake -B build-asan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer"
  # shellcheck disable=SC2086
  cmake --build build-asan --target $asan_tests test_faults
  for t in $asan_tests; do
    "build-asan/tests/$t"
  done
  build-asan/tests/test_faults --gtest_filter='Checkpoint*'

  echo "==== DPGEN_TRACE=0 pass (tracing compiled out)"
  cmake -B build-notrace -G Ninja -DDPGEN_TRACE=OFF
  cmake --build build-notrace
  ctest --test-dir build-notrace --output-on-failure

  echo "==== Release tests and bench smoke (hot-path throughput)"
  # Generated programs are measured in Release, where GCC instantiates and
  # inlines differently (an implicit destructor of an extern template
  # once landed in engine.cpp.o at -O3 only): the symbol, include-closure
  # and generated-program tests run on this tree too.  The deliver/pop
  # cycle on its own is hotpath/table_deliver_pop, gated in the next leg.
  # The whole tree builds warning-free here (-Werror), tests and benches
  # included.
  cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-release
  ctest --test-dir build-release --output-on-failure \
    -R '^(DriverInstantiation\.|EndToEnd\.|Families/EndToEnd|Codegen|Seeds/Codegen)'
  build-release/tools/dpgen-bench --table=HOTPATH

  echo "==== continuous-benchmarking gate (dpgen-bench)"
  # A quick, ms-scale subset: run with repeated trials, validate the
  # emitted document, archive it (for --trend), and gate against the
  # per-machine auto-baseline — the first run on a machine establishes
  # the baseline and exits green; later runs fail on a real regression.
  # hotpath/grid_w2 vs hotpath/grid_w2_mon also tracks the live-monitor
  # overhead budget (< 3% of edge throughput) across commits.
  # codegen/ additionally carries the pass-pipeline speedup contract: the
  # full-pipeline variant must hold >= 1.3x the pass-free center-loop
  # throughput on at least two families (checked below from the same run).
  gate_filter="fm,initial_tiles,loadbalance/balancer,analysis,suite/lcs2"
  gate_filter="$gate_filter,hotpath/grid_w2,hotpath/table_deliver_pop"
  gate_filter="$gate_filter,codegen/,faults/"
  build-release/tools/dpgen-bench --filter="$gate_filter" --trials=5 \
    --json="bench-archive/run-latest.json" --archive --gate
  build-release/tools/dpgen-bench \
    --validate=bench-archive/run-latest.json --schema=tools/bench_schema.json
  # Pass-pipeline speedup gate: full vs none center-loop throughput from
  # the run just archived.  Unlike the regression gate this is an absolute
  # contract (docs/codegen.md), not a comparison against a baseline.
  python3 - bench-archive/run-latest.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rate = {}
for b in doc["benches"]:
    if b["name"].startswith("codegen/"):
        fam, variant = b["name"].split("/", 1)[1].rsplit("_", 1)
        rate.setdefault(fam, {})[variant] = b["metrics"]["cells_per_sec"]
ratios = {f: r["full"] / r["none"]
          for f, r in rate.items() if r.get("none") and r.get("full")}
ok = sorted(f for f, x in ratios.items() if x >= 1.3)
print("codegen pass-pipeline speedup:",
      ", ".join(f"{f} {ratios[f]:.2f}x" for f in sorted(ratios)) or "none")
if len(ok) < 2:
    sys.exit("codegen perf gate: >= 1.3x on %d/%d families (need 2)"
             % (len(ok), len(ratios)))
EOF
  # Continuous-profiling overhead gate (docs/observability.md): the
  # sampling profiler + adaptive-stride counter windows must cost < 3%
  # of edge throughput on the scheduling-bound workload, from the same
  # archived run (grid_w2 vs grid_w2_prof, both pulled in by the
  # hotpath/grid_w2 prefix above).  An absolute contract, not a
  # baseline comparison.
  python3 - bench-archive/run-latest.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rate = {b["name"]: b["metrics"]["edges_per_s"] for b in doc["benches"]
        if b["name"].startswith("hotpath/grid_w2")}
plain, prof = rate.get("hotpath/grid_w2"), rate.get("hotpath/grid_w2_prof")
if not plain or not prof:
    sys.exit("profile overhead gate: missing hotpath/grid_w2 or "
             "hotpath/grid_w2_prof in the archived run")
overhead = 100.0 * (1.0 - prof / plain)
print("continuous-profiling overhead: %.2f%% (budget < 3%%)" % overhead)
if prof < 0.97 * plain:
    sys.exit("profile overhead gate: profiling costs %.2f%% of edge "
             "throughput (budget 3%%)" % overhead)
EOF
  # Message-tracing overhead gate (docs/observability.md): stamping and
  # recording every message lifecycle must cost < 3% of edge throughput.
  # The baseline is grid_w2_r2, NOT grid_w2 — the single-rank workload
  # sends no messages, so it would measure nothing.  Both entries come in
  # through the hotpath/grid_w2 prefix above.
  python3 - bench-archive/run-latest.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rate = {b["name"]: b["metrics"]["edges_per_s"] for b in doc["benches"]
        if b["name"].startswith("hotpath/grid_w2")}
plain, mt = rate.get("hotpath/grid_w2_r2"), rate.get("hotpath/grid_w2_msgtrace")
if not plain or not mt:
    sys.exit("msgtrace overhead gate: missing hotpath/grid_w2_r2 or "
             "hotpath/grid_w2_msgtrace in the archived run")
overhead = 100.0 * (1.0 - mt / plain)
print("message-tracing overhead: %.2f%% (budget < 3%%)" % overhead)
if mt < 0.97 * plain:
    sys.exit("msgtrace overhead gate: tracing costs %.2f%% of edge "
             "throughput (budget 3%%)" % overhead)
EOF
  # Checkpoint clean-path overhead gate (docs/fault-tolerance.md): logging
  # every tile completion must cost < 3% of tile throughput on the
  # production-shaped workload, from the same archived run.  An absolute
  # contract like the codegen gate, not a baseline comparison.
  python3 - bench-archive/run-latest.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rate = {b["name"]: b["metrics"]["cells_per_sec"] for b in doc["benches"]
        if b["name"].startswith("faults/")}
clean, ckpt = rate.get("faults/clean"), rate.get("faults/checkpointed")
if not clean or not ckpt:
    sys.exit("faults overhead gate: missing faults/clean or "
             "faults/checkpointed in the archived run")
overhead = 100.0 * (1.0 - ckpt / clean)
print("checkpoint clean-path overhead: %.2f%% (budget < 3%%)" % overhead)
if ckpt < 0.97 * clean:
    sys.exit("faults overhead gate: checkpointing costs %.2f%% of clean "
             "throughput (budget 3%%)" % overhead)
EOF
  # The checked-in smoke baseline gates too (skips with a warning on a
  # different machine fingerprint).
  build-release/tools/dpgen-bench --filter="$gate_filter" --trials=5 \
    --gate --baseline=bench-archive/smoke-baseline.json
  # Self-test: an injected 4x slowdown MUST fire the gate; a gate that
  # cannot fail protects nothing.
  if build-release/tools/dpgen-bench --filter="$gate_filter" --trials=3 \
      --gate --self-test-slowdown=4 > /dev/null 2>&1; then
    echo "ERROR: perf gate failed to fire on an injected 4x slowdown" >&2
    exit 1
  fi
  echo "perf gate self-test: injected slowdown correctly rejected"
  build-release/tools/dpgen-bench --trend=bench-archive/trend.html
  echo "trend page written to bench-archive/trend.html"
fi
echo "all checks passed"
