#!/usr/bin/env bash
# Full verification pipeline: build, tests, a quick benchmark smoke pass,
# and (optionally) sanitizer builds of the concurrency-heavy tests.
#
#   scripts/check.sh               # build + ctest + schedule-invariance
#                                  # repeats + bench smoke
#   scripts/check.sh --tsan        # additionally run ThreadSanitizer subset
#   scripts/check.sh --asan        # additionally run AddressSanitizer subset
#   scripts/check.sh --failpoints  # additionally run an env-armed fault pass
#   scripts/check.sh --obs         # additionally run the observability pass
#                                  # (traced job -> validate_trace, bench
#                                  # JSON recorder, obs tests under tsan)
#   scripts/check.sh --obs2        # additionally run the service-
#                                  # observability pass (span ledger /
#                                  # exporter / logging tests under tsan,
#                                  # span-bearing batch trace validated,
#                                  # serve + metrics + flame CLI smokes,
#                                  # tracing-off zero-overhead regression,
#                                  # obs_overhead bench + bench_diff)
#   scripts/check.sh --service     # additionally run the service-layer pass
#                                  # (cache/arena/service tests under tsan,
#                                  # CLI batch smoke)
#   scripts/check.sh --dyn         # additionally run the dynamic-update
#                                  # pass (delta/incremental tests under
#                                  # tsan, CLI stream smoke with --verify
#                                  # on a generated update file)
#   scripts/check.sh --simd        # additionally run the intersection-
#                                  # backend pass (differential tests under
#                                  # ASan+UBSan with the backend forced
#                                  # scalar and forced vector, plus a CLI
#                                  # smoke of every --intersect mode)
#   scripts/check.sh --plan        # additionally run the query-planner
#                                  # pass (planner differential + plan +
#                                  # plan-cache tests under ASan+UBSan, a
#                                  # CLI smoke asserting --planner cost
#                                  # counts match greedy, and the planner
#                                  # bench through the recorder with
#                                  # bench_diff over the committed
#                                  # BENCH_planner.json baseline)
#   scripts/check.sh --prefilter   # additionally run the candidate-
#                                  # prefiltering pass (filter unit +
#                                  # differential + service suites under
#                                  # ASan+UBSan, a CLI smoke asserting
#                                  # --prefilter off/ldf/neighborhood
#                                  # count identically, and the prefilter
#                                  # bench with bench_diff over the
#                                  # committed BENCH_prefilter.json)
#   scripts/check.sh --shard       # additionally run the shard-parallel
#                                  # pass (partitioner + cross-shard
#                                  # differential suites under ASan+UBSan
#                                  # and TSan, a CLI smoke asserting
#                                  # --sharding off/hash/greedy count
#                                  # identically, and the shard bench with
#                                  # bench_diff over the committed
#                                  # BENCH_shard.json)
#   scripts/check.sh --oom         # additionally run the out-of-core pass
#                                  # (governor/spill differential tests
#                                  # under ASan, the oom bench through the
#                                  # TDFS_BENCH_JSON recorder, and a CLI
#                                  # smoke on a 0.1x arena with --spill on)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cmake -B build -G Ninja >/dev/null
cmake --build build

echo "== tests =="
ctest --test-dir build -j1 --output-on-failure

# Schedule-invariance: work_units must not depend on which warp adopts
# which task. Repeating the replay tests makes a schedule-dependent
# counter fail here instead of flaking the test suite.
echo "== schedule-invariance repeats =="
./build/tests/obs_test --gtest_filter='TracingOffTest.*' --gtest_repeat=20
./build/tests/shard_differential_test --gtest_filter='*ShardWorkParity*' \
  --gtest_repeat=20

echo "== bench smoke (tight budget) =="
TDFS_BENCH_BUDGET_MS=500 ./build/bench/tab01_datasets
TDFS_BENCH_BUDGET_MS=500 ./build/bench/tab0708_stacks_youtube

# Concurrency-focused tests for sanitizer runs. The dfs_engine_test subset
# below adds the borrowed-resource cases (EngineResourcesTest.*): queues
# reused across runs, each reset only over the ring prefix it used.
SAN_TESTS='task_queue_test page_allocator_test atomics_test scheduler_test match_sink_test failpoint_test resilience_test'

for flag in "$@"; do
  case "$flag" in
    --tsan) SAN=thread ;;
    --asan) SAN=address ;;
    --obs)
      # Observability pass: one small traced matching job through the CLI,
      # schema-validated by the dedicated checker (monotone per-track
      # timestamps, required lifecycle events, every counter field); one
      # tight-budget bench run through the TDFS_BENCH_JSON recorder; and
      # the obs tests under ThreadSanitizer (the rings and registry are
      # touched from every warp thread).
      echo "== observability =="
      OBS_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type er --out "${OBS_TMP}/g.txt" \
          --vertices 2000 --edges 8000 --seed 7 >/dev/null
      ./build/tools/tdfs match --graph "${OBS_TMP}/g.txt" --pattern P5 \
          --warps 4 --tau-units 100 --json "${OBS_TMP}/run.json" \
          --trace-out "${OBS_TMP}/trace.json"
      ./build/tools/validate_trace \
          --trace "${OBS_TMP}/trace.json" \
          --require adopt,split,enqueue,dequeue,page_acquire,page_release \
          --run "${OBS_TMP}/run.json"
      TDFS_BENCH_JSON="${OBS_TMP}/BENCH_fig09.json" \
          TDFS_BENCH_BUDGET_MS=10 ./build/bench/fig09_unlabeled >/dev/null
      test -s "${OBS_TMP}/BENCH_fig09.json"
      cmake -B build-thread -G Ninja -DTDFS_SANITIZE=thread >/dev/null
      cmake --build build-thread --target obs_test json_test
      ./build-thread/tests/obs_test
      ./build-thread/tests/json_test
      rm -rf "${OBS_TMP}"
      continue
      ;;
    --obs2)
      # Service-observability pass. The span ledger, Prometheus endpoint,
      # and log sink are all touched concurrently by workers + scrapers,
      # so their tests run under ThreadSanitizer. Then CLI proofs:
      # a span-bearing batch trace through validate_trace (balanced
      # begin/end, parent-before-child), the serve endpoint scraped live,
      # the one-shot metrics dump, a flame-out export, a tracing-off
      # zero-overhead check (identical counts and work), and the
      # obs_overhead bench through the recorder with bench_diff proving
      # both the no-regression and the regression-detected paths.
      echo "== service observability =="
      cmake -B build-thread -G Ninja -DTDFS_SANITIZE=thread >/dev/null
      for t in span_test prometheus_test logging_test attribution_test \
               obs_test; do
        cmake --build build-thread --target "$t"
      done
      for t in span_test prometheus_test logging_test attribution_test; do
        "./build-thread/tests/$t"
      done
      # TracingOffTest asserts exact work-unit equality across repeat
      # runs — a determinism property, not a race property. TSan's
      # scheduler perturbation occasionally shifts multi-warp steal
      # points enough to move the count by ~0.3%, so that suite stays
      # with the plain ctest run (which enforces it) and the tsan pass
      # keeps the race coverage.
      ./build-thread/tests/obs_test --gtest_filter='-TracingOffTest.*'
      OBS2_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type ba --out "${OBS2_TMP}/g.txt" \
          --vertices 2000 --attach 4 --seed 7 >/dev/null
      printf 'P1\nP2\nP5\nP2\n' > "${OBS2_TMP}/batch.txt"
      # Span-bearing trace: service stages + warp events on one timeline.
      ./build/tools/tdfs batch --graph "${OBS2_TMP}/g.txt" \
          --queries "${OBS2_TMP}/batch.txt" --workers 2 \
          --trace-out "${OBS2_TMP}/trace.json" >/dev/null
      ./build/tools/validate_trace --trace "${OBS2_TMP}/trace.json" \
          --require adopt
      # Live scrape: serve in the background, poll the printed port.
      ./build/tools/tdfs serve --graph "${OBS2_TMP}/g.txt" --pattern P2 \
          --metrics-port 0 --duration-ms 2000 --slow-ms 0.001 \
          > "${OBS2_TMP}/serve.log" 2> "${OBS2_TMP}/serve.err" &
      SERVE_PID=$!
      for _ in $(seq 50); do
        PORT=$(sed -n 's|.*http://127.0.0.1:\([0-9]*\)/metrics.*|\1|p' \
            "${OBS2_TMP}/serve.log")
        [ -n "${PORT}" ] && break
        sleep 0.1
      done
      test -n "${PORT}"
      python3 -c "
import sys, urllib.request
page = urllib.request.urlopen(
    'http://127.0.0.1:${PORT}/metrics', timeout=5).read().decode()
assert '# TYPE tdfs_service_jobs_submitted counter' in page, page[:400]
assert '_bucket{' in page and '+Inf' in page, page[:400]
print('scrape ok:', len(page), 'bytes')
"
      wait "${SERVE_PID}"
      grep -q "^stage engine_run:" "${OBS2_TMP}/serve.log"
      # One-shot exposition dump. Capture to a file rather than piping
      # into grep -q: grep exits at the first match and the CLI's
      # remaining writes would die of SIGPIPE under pipefail.
      ./build/tools/tdfs metrics --graph "${OBS2_TMP}/g.txt" \
          --pattern P1 --jobs 2 > "${OBS2_TMP}/metrics.txt"
      grep -q 'tdfs_service_jobs_completed{name="service.jobs_completed"} 2' \
          "${OBS2_TMP}/metrics.txt"
      # Collapsed-stack attribution export.
      ./build/tools/tdfs match --graph "${OBS2_TMP}/g.txt" --pattern P5 \
          --warps 4 --flame-out "${OBS2_TMP}/flame.txt" >/dev/null
      grep -q "^tdfs;cell" "${OBS2_TMP}/flame.txt"
      # Zero-overhead contract: tracing must not change the computation.
      ./build/tools/tdfs match --graph "${OBS2_TMP}/g.txt" --pattern P5 \
          --warps 4 --json "${OBS2_TMP}/plain.json" >/dev/null
      ./build/tools/tdfs match --graph "${OBS2_TMP}/g.txt" --pattern P5 \
          --warps 4 --json "${OBS2_TMP}/traced.json" \
          --trace-out "${OBS2_TMP}/t2.json" >/dev/null
      for field in match_count work_units; do
        a=$(grep -m1 -o "\"${field}\": [0-9]*" "${OBS2_TMP}/plain.json")
        b=$(grep -m1 -o "\"${field}\": [0-9]*" "${OBS2_TMP}/traced.json")
        if [ "$a" != "$b" ]; then
          echo "tracing changed the computation: ${field} ${a} vs ${b}"
          exit 1
        fi
      done
      echo "-- tracing-off/on: counts and work identical --"
      # Overhead bench through the recorder; bench_diff must accept the
      # self-diff and reject an injected 2x wall-time regression.
      TDFS_BENCH_JSON="${OBS2_TMP}/BENCH_obs_overhead.json" \
          ./build/bench/obs_overhead >/dev/null
      test -s "${OBS2_TMP}/BENCH_obs_overhead.json"
      python3 tools/bench_diff.py "${OBS2_TMP}/BENCH_obs_overhead.json" \
          "${OBS2_TMP}/BENCH_obs_overhead.json"
      python3 - "${OBS2_TMP}" <<'EOF'
import json, sys
tmp = sys.argv[1]
doc = json.load(open(f"{tmp}/BENCH_obs_overhead.json"))
for cell in doc["cells"]:
    if cell["col"] == "wall_ms":
        cell["text"] = str(2 * float(cell["text"]))
json.dump(doc, open(f"{tmp}/BENCH_regressed.json", "w"))
EOF
      if python3 tools/bench_diff.py \
          "${OBS2_TMP}/BENCH_obs_overhead.json" \
          "${OBS2_TMP}/BENCH_regressed.json" >/dev/null; then
        echo "bench_diff missed a 2x wall-time regression"; exit 1
      fi
      echo "-- bench_diff: self-diff clean, injected regression caught --"
      rm -rf "${OBS2_TMP}"
      continue
      ;;
    --service)
      # Service-layer pass: the batch subsystem is concurrency all the way
      # down (LRU cache under racing Gets, per-worker pools and queues
      # scrubbed between jobs, futures fulfilled by whichever worker
      # finishes last), so its tests run under ThreadSanitizer, plus the
      # queue test that guards the occupancy accounting they depend on and
      # the engine's borrowed-resource cases. Then one CLI batch smoke run
      # proves the plumbing end to end.
      echo "== service =="
      cmake -B build-thread -G Ninja -DTDFS_SANITIZE=thread >/dev/null
      for t in plan_cache_test match_service_test task_queue_test \
               dfs_engine_test; do
        cmake --build build-thread --target "$t"
      done
      for t in plan_cache_test match_service_test task_queue_test; do
        "./build-thread/tests/$t"
      done
      ./build-thread/tests/dfs_engine_test \
          --gtest_filter='EngineResourcesTest.*'
      SVC_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type ba --out "${SVC_TMP}/g.txt" \
          --vertices 2000 --attach 4 --seed 7 >/dev/null
      printf 'P1\nP2\nP1\n' > "${SVC_TMP}/batch.txt"
      ./build/tools/tdfs batch --graph "${SVC_TMP}/g.txt" \
          --queries "${SVC_TMP}/batch.txt" --workers 2 \
          --out "${SVC_TMP}/results.json"
      test -s "${SVC_TMP}/results.json"
      rm -rf "${SVC_TMP}"
      continue
      ;;
    --dyn)
      # Dynamic-update pass: snapshot publication and continuous-query
      # maintenance race with submitted jobs by design, so the dyn and
      # service tests run under ThreadSanitizer. Then one end-to-end CLI
      # run: generate a random update stream, replay it with --verify 1
      # (every batch's incremental counts cross-checked against a full
      # recount — the command fails on any mismatch).
      echo "== dynamic updates =="
      cmake -B build-thread -G Ninja -DTDFS_SANITIZE=thread >/dev/null
      for t in graph_delta_test incremental_test match_service_test; do
        cmake --build build-thread --target "$t"
      done
      for t in graph_delta_test incremental_test match_service_test; do
        "./build-thread/tests/$t"
      done
      DYN_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type er --out "${DYN_TMP}/g.txt" \
          --vertices 300 --edges 1800 --seed 5 >/dev/null
      ./build/tools/tdfs stream --graph "${DYN_TMP}/g.txt" \
          --gen-updates "${DYN_TMP}/u.txt" --batches 4 --inserts 6 \
          --deletes 4 --seed 11
      ./build/tools/tdfs stream --graph "${DYN_TMP}/g.txt" \
          --updates "${DYN_TMP}/u.txt" --pattern P2 --verify 1 \
          --out "${DYN_TMP}/stream.json"
      test -s "${DYN_TMP}/stream.json"
      rm -rf "${DYN_TMP}"
      continue
      ;;
    --simd)
      # Intersection-backend pass: the differential suite (outputs AND
      # work units identical across scalar/SIMD/bitmap) under ASan+UBSan,
      # run twice — once with the backend capped to scalar via TDFS_SIMD
      # (what a machine without AVX2 executes; the cap also proves the
      # fallback path is clean) and once with full vector dispatch. Then a
      # CLI smoke run of every --intersect mode on a hub-heavy graph,
      # asserting identical match counts and work units across modes.
      echo "== simd backends =="
      cmake -B build-address-ub -G Ninja \
          -DTDFS_SANITIZE=address,undefined >/dev/null
      for t in intersect_backend_test hub_bitmap_test intersect_test; do
        cmake --build build-address-ub --target "$t"
      done
      for t in intersect_backend_test hub_bitmap_test intersect_test; do
        echo "-- $t (TDFS_SIMD=scalar: no-AVX2 fallback) --"
        TDFS_SIMD=scalar "./build-address-ub/tests/$t"
        echo "-- $t (full vector dispatch) --"
        "./build-address-ub/tests/$t"
      done
      SIMD_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type hubba --out "${SIMD_TMP}/g.txt" \
          --vertices 2000 --attach 2 --hubs 6 --hub-degree 600 \
          --seed 3 >/dev/null
      for mode in auto scalar simd bitmap-off; do
        ./build/tools/tdfs match --graph "${SIMD_TMP}/g.txt" --pattern P3 \
            --warps 4 --tau-units 100000 --intersect "$mode" \
            --json "${SIMD_TMP}/run-${mode}.json" >/dev/null
      done
      for mode in scalar simd bitmap-off; do
        for field in match_count work_units; do
          a=$(grep -o "\"${field}\": [0-9]*" "${SIMD_TMP}/run-auto.json" \
              | head -1)
          b=$(grep -o "\"${field}\": [0-9]*" \
              "${SIMD_TMP}/run-${mode}.json" | head -1)
          if [ "$a" != "$b" ]; then
            echo "backend divergence: ${field} auto=${a} ${mode}=${b}"
            exit 1
          fi
        done
        echo "-- --intersect ${mode}: counts and work match auto --"
      done
      rm -rf "${SIMD_TMP}"
      continue
      ;;
    --plan)
      # Query-planner pass: the exactness differentials (cost-planned
      # counts == greedy == oracle on the pattern suite and random
      # labeled queries) plus the plan/plan-cache suites under
      # ASan+UBSan; a CLI smoke proving --planner cost and greedy count
      # identically on a label-skewed hub graph; and the planner bench
      # through the TDFS_BENCH_JSON recorder, with bench_diff watching
      # the trajectory against the committed baseline.
      echo "== cost planner =="
      cmake -B build-address-ub -G Ninja \
          -DTDFS_SANITIZE=address,undefined >/dev/null
      for t in cost_planner_test plan_test plan_cache_test; do
        cmake --build build-address-ub --target "$t"
        echo "-- $t (ASan+UBSan) --"
        "./build-address-ub/tests/$t"
      done
      PLAN_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type hubba --out "${PLAN_TMP}/g.txt" \
          --vertices 3000 --attach 3 --hubs 6 --hub-degree 300 \
          --seed 5 >/dev/null
      for planner in greedy cost; do
        ./build/tools/tdfs match --graph "${PLAN_TMP}/g.txt" \
            --pattern P14 --labels 4 --warps 4 --planner "$planner" \
            --json "${PLAN_TMP}/run-${planner}.json" >/dev/null
      done
      a=$(grep -o '"match_count": [0-9]*' "${PLAN_TMP}/run-greedy.json" \
          | head -1)
      b=$(grep -o '"match_count": [0-9]*' "${PLAN_TMP}/run-cost.json" \
          | head -1)
      if [ "$a" != "$b" ]; then
        echo "planner divergence: greedy=${a} cost=${b}"; exit 1
      fi
      echo "-- --planner cost: counts match greedy --"
      TDFS_BENCH_JSON="${PLAN_TMP}/BENCH_planner.json" \
          TDFS_BENCH_BUDGET_MS=1000 ./build/bench/planner >/dev/null
      python3 tools/bench_diff.py BENCH_planner.json \
          "${PLAN_TMP}/BENCH_planner.json"
      rm -rf "${PLAN_TMP}"
      continue
      ;;
    --prefilter)
      # Candidate-prefiltering pass: the filter build walks raw CSR spans
      # with remapped indices — exactly where an off-by-one becomes a
      # silent OOB read — so the unit, differential (filtered counts ==
      # unfiltered oracle across engines x graphs x kinds), and service
      # suites run under ASan+UBSan. Then a CLI smoke proving the modes
      # are a pure optimization (identical counts off/ldf/neighborhood on
      # a label-skewed hub graph), and the prefilter bench through the
      # recorder with bench_diff watching the committed baseline.
      echo "== candidate prefiltering =="
      cmake -B build-address-ub -G Ninja \
          -DTDFS_SANITIZE=address,undefined >/dev/null
      for t in candidate_filter_test prefilter_differential_test \
               prefilter_service_test label_index_test; do
        cmake --build build-address-ub --target "$t"
        echo "-- $t (ASan+UBSan) --"
        "./build-address-ub/tests/$t"
      done
      PREF_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type hubba --out "${PREF_TMP}/g.txt" \
          --vertices 3000 --attach 3 --hubs 6 --hub-degree 300 \
          --seed 5 >/dev/null
      for mode in off ldf neighborhood; do
        ./build/tools/tdfs match --graph "${PREF_TMP}/g.txt" \
            --pattern P14 --labels 4 --warps 4 --prefilter "$mode" \
            --json "${PREF_TMP}/run-${mode}.json" >/dev/null
      done
      a=$(grep -o '"match_count": [0-9]*' "${PREF_TMP}/run-off.json" \
          | head -1)
      for mode in ldf neighborhood; do
        b=$(grep -o '"match_count": [0-9]*' \
            "${PREF_TMP}/run-${mode}.json" | head -1)
        if [ "$a" != "$b" ]; then
          echo "prefilter divergence: off=${a} ${mode}=${b}"; exit 1
        fi
        echo "-- --prefilter ${mode}: counts match off --"
      done
      TDFS_BENCH_JSON="${PREF_TMP}/BENCH_prefilter.json" \
          TDFS_BENCH_BUDGET_MS=1000 ./build/bench/prefilter >/dev/null
      # The speedup row divides by the filter's host build time, so it
      # carries real machine-load noise on top of the simulated cells;
      # gate the trajectory at a wider threshold than the default 10%.
      python3 tools/bench_diff.py --threshold 40 BENCH_prefilter.json \
          "${PREF_TMP}/BENCH_prefilter.json"
      rm -rf "${PREF_TMP}"
      continue
      ;;
    --shard)
      # Shard-parallel pass. The partitioner's id remapping and the
      # cross-shard routing protocol are where an off-by-one becomes a
      # silent OOB or a lost work token, so both suites run under
      # ASan+UBSan; the per-shard engines, queues, and the exchange's
      # token accounting run concurrently, so they repeat under TSan.
      # Then a CLI smoke proving sharding is a pure execution strategy
      # (identical counts off/hash/greedy), and the shard bench through
      # bench_diff against the committed baseline.
      echo "== shard-parallel execution =="
      cmake -B build-address-ub -G Ninja \
          -DTDFS_SANITIZE=address,undefined >/dev/null
      for t in partition_test shard_differential_test; do
        cmake --build build-address-ub --target "$t"
        echo "-- $t (ASan+UBSan) --"
        "./build-address-ub/tests/$t"
      done
      cmake -B build-thread -G Ninja -DTDFS_SANITIZE=thread >/dev/null
      for t in partition_test shard_differential_test; do
        cmake --build build-thread --target "$t"
        echo "-- $t (TSan) --"
        "./build-thread/tests/$t"
      done
      SHARD_TMP=$(mktemp -d)
      ./build/tools/tdfs generate --type ba --out "${SHARD_TMP}/g.txt" \
          --vertices 4000 --attach 6 --seed 11 >/dev/null
      for mode in off hash greedy; do
        ./build/tools/tdfs match --graph "${SHARD_TMP}/g.txt" \
            --pattern P2 --warps 4 --devices 4 --sharding "$mode" \
            --json "${SHARD_TMP}/run-${mode}.json" >/dev/null
      done
      a=$(grep -o '"match_count": [0-9]*' "${SHARD_TMP}/run-off.json" \
          | head -1)
      for mode in hash greedy; do
        b=$(grep -o '"match_count": [0-9]*' \
            "${SHARD_TMP}/run-${mode}.json" | head -1)
        if [ "$a" != "$b" ]; then
          echo "sharding divergence: off=${a} ${mode}=${b}"; exit 1
        fi
        echo "-- --sharding ${mode}: counts match off --"
      done
      TDFS_BENCH_JSON="${SHARD_TMP}/BENCH_shard.json" \
          TDFS_BENCH_BUDGET_MS=3000 ./build/bench/fig_shard >/dev/null
      # Modeled times divide simulated compute by metered interconnect
      # traffic; both are deterministic, but the wall-clock-derived
      # match_ms scale factor carries machine noise — same wide gate as
      # the prefilter bench.
      python3 tools/bench_diff.py --threshold 40 BENCH_shard.json \
          "${SHARD_TMP}/BENCH_shard.json"
      rm -rf "${SHARD_TMP}"
      continue
      ;;
    --oom)
      # Out-of-core pass: the governor/spill machinery (host extents,
      # promotion memcpy, concurrent reservation waiters) runs under
      # AddressSanitizer — exactly the code where a lifetime bug becomes
      # silent corruption; then the oom bench (exact counts at
      # 0.5x/0.25x/0.1x arena sizing, OOM without spill) through the
      # bench JSON recorder; then one CLI proof that --spill on turns a
      # kResourceExhausted run into an exact one on a 10x-starved arena.
      echo "== out-of-core (governor + spill) =="
      cmake -B build-address -G Ninja -DTDFS_SANITIZE=address >/dev/null
      for t in memory_governor_test page_allocator_test warp_stack_test \
               resilience_test match_service_test; do
        cmake --build build-address --target "$t"
      done
      for t in memory_governor_test page_allocator_test warp_stack_test \
               resilience_test match_service_test; do
        "./build-address/tests/$t"
      done
      OOM_TMP=$(mktemp -d)
      TDFS_BENCH_JSON="${OOM_TMP}/BENCH_oom.json" ./build/bench/oom
      test -s "${OOM_TMP}/BENCH_oom.json"
      ./build/tools/tdfs generate --type hubba --out "${OOM_TMP}/g.txt" \
          --vertices 2000 --attach 3 --hubs 3 --hub-degree 400 \
          --seed 7 >/dev/null
      if ./build/tools/tdfs match --graph "${OOM_TMP}/g.txt" --pattern P5 \
          --warps 4 --tau-units 4096 --pages 2 --spill off \
          >/dev/null 2>&1; then
        echo "expected OOM on the starved arena without spill"; exit 1
      fi
      ./build/tools/tdfs match --graph "${OOM_TMP}/g.txt" --pattern P5 \
          --warps 4 --tau-units 4096 --pages 2 --spill on \
          --json "${OOM_TMP}/spill.json"
      test -s "${OOM_TMP}/spill.json"
      rm -rf "${OOM_TMP}"
      continue
      ;;
    --failpoints)
      # Fault-injection pass: the resilience suite exercises the recovery
      # machinery programmatically, then one engine run is driven purely by
      # the TDFS_FAILPOINTS env spec to prove the env plumbing end to end.
      echo "== failpoints =="
      ./build/tests/failpoint_test
      ./build/tests/resilience_test
      TDFS_FAILPOINTS='page_alloc=every:97' \
          TDFS_BENCH_BUDGET_MS=500 ./build/bench/tab01_datasets
      continue
      ;;
    *) echo "unknown flag $flag"; exit 1 ;;
  esac
  echo "== ${SAN} sanitizer =="
  cmake -B "build-${SAN}" -G Ninja -DTDFS_SANITIZE="${SAN}" >/dev/null
  for t in ${SAN_TESTS} dfs_engine_test; do
    cmake --build "build-${SAN}" --target "$t"
  done
  for t in ${SAN_TESTS}; do
    "./build-${SAN}/tests/$t"
  done
  # One engine correctness pass under the sanitizer (subset: fast cases,
  # plus the borrowed-resource adoption rules).
  "./build-${SAN}/tests/dfs_engine_test" \
      --gtest_filter='TdfsEngineTest.MatchesOracleOnRandomGraph:TdfsEngineTest.TinyVirtualTimeout*:EngineResourcesTest.*'
done

echo "ALL CHECKS PASSED"
