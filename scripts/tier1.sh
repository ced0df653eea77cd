#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then the
# concurrency layer (thread pool + batch runner + shared-Cdf reads) rebuilt
# and re-run under ThreadSanitizer, then the whole test binary rebuilt and
# run in one process under AddressSanitizer + UBSan (so heap bugs that
# depend on test order show up too), then a Release-mode smoke run of the
# core micro-benchmarks gated against the committed BENCH_core.json baseline
# (catches perf-path code that only compiles, only crashes, or only crawls
# under optimization), then the observability smoke: fig20 run at --jobs 1
# and --jobs 8 with every --*-out flag, the deterministic artifacts (metrics,
# trace, csv, timeseries, and the profile's deterministic section) cmp'd
# byte-for-byte — timeseries across the full --shards 1/2/8/auto x --jobs
# 1/8 grid — validated with scripts/check_obs.py (including the timeseries
# interval-sum vs final-counter reconciliation), the time-resolved
# convergence bench smoked at both job counts, and a second seed diffed
# with scripts/obs_diff.py (same schema, different values), then the fault
# stage: ext_fault_tolerance cmp'd across --jobs 1/8, and again with
# duplication and delay jitter across --shards 1/auto x --jobs 1/8, then
# the study stage: every Section 3 study bench (fig03-fig12) cmp'd across
# --jobs 1/4. Run from the repository root.
#
#   scripts/tier1.sh            # all stages
#   scripts/tier1.sh --no-tsan  # skip the TSan stage
#   scripts/tier1.sh --no-asan  # skip the whole-suite ASan+UBSan stage
#   scripts/tier1.sh --no-perf  # skip the Release perf smoke + regression gate
#   scripts/tier1.sh --no-obs   # skip the observability smoke stage
#   scripts/tier1.sh --no-fault # skip the fault-injection smoke stage
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_perf=1
run_obs=1
run_fault=1
for arg in "$@"; do
  case "${arg}" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --no-perf) run_perf=0 ;;
    --no-obs) run_obs=0 ;;
    --no-fault) run_fault=0 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

echo "== tier-1: standard build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "${run_tsan}" == "1" ]]; then
  echo
  echo "== tier-1: thread pool + batch runner under ThreadSanitizer =="
  cmake -B build-tsan -S . -DCDNSIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target cdnsim_tests
  ./build-tsan/tests/cdnsim_tests \
    --gtest_filter='ThreadPool*:BatchRunner*:RngTest.Substream*:CdfTest.ConcurrentReadsOnSharedConstCdf:FaultInjectionProperty*:ShardMerge*:*ShardPipeline*:VisitBatch*:Catalog*:Ring*:Pubsub*:Fanout*'
fi

if [[ "${run_asan}" == "1" ]]; then
  echo
  echo "== tier-1: whole test suite under AddressSanitizer + UBSan =="
  cmake -B build-asan -S . -DCDNSIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target cdnsim_tests
  # One process for the whole suite, unlike ctest's process per test: a
  # use-after-free or overflow that only shows once earlier tests have
  # shaped the heap is caught here. UB reports abort the run.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ./build-asan/tests/cdnsim_tests
fi

if [[ "${run_perf}" == "1" ]]; then
  echo
  echo "== tier-1: Release perf smoke (micro_core) + regression gate =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j --target micro_core fig20_network_size \
    fig09_isp
  # Note: the system google-benchmark predates duration suffixes, so the
  # value must be a plain double (no "s"/"x").
  ./build-release/bench/micro_core --benchmark_min_time=0.05 \
    --bench-json "${tmp_dir}/bench_fresh.jsonl" --bench-config tier1
  # fig20 --small on the sharded driver records fig20_small_shards<N>;
  # "auto" (the default selection mode) records fig20_small_shards_auto
  # (shape checks may fail at --small scale, exit 1; only >= 2 is a crash).
  for sh in 1 8 auto; do
    rc=0
    ./build-release/bench/fig20_network_size --small --jobs 8 --shards "${sh}" \
      --bench-json "${tmp_dir}/bench_fresh.jsonl" >/dev/null || rc=$?
    if [[ "${rc}" -ge 2 ]]; then
      echo "fig20_network_size --shards ${sh} failed (exit ${rc})" >&2
      exit 1
    fi
  done
  # fig09 --small records fig09_small: one whole measurement study, so the
  # gate also covers the Section 3 analysis kernels (a return to their
  # quadratic loops is ~6x slower).
  rc=0
  ./build-release/bench/fig09_isp --small --jobs 1 \
    --bench-json "${tmp_dir}/bench_fresh.jsonl" >/dev/null || rc=$?
  if [[ "${rc}" -ge 2 ]]; then
    echo "fig09_isp failed (exit ${rc})" >&2
    exit 1
  fi
  # 2.0x, not the script's 1.5x default: the committed baseline was recorded
  # in an earlier session and this host swings ~±30% run to run (measured by
  # interleaving identical binaries), so 1.5x flakes on wall-heavy benches.
  # The gate's job is catching order-of-magnitude breakage, which 2.0x does.
  python3 scripts/check_bench_regression.py --baseline BENCH_core.json \
    --fresh "${tmp_dir}/bench_fresh.jsonl" --tolerance 1.0
fi

if [[ "${run_obs}" == "1" ]]; then
  echo
  echo "== tier-1: observability artifacts (determinism + format) =="
  cmake --build build -j --target fig20_network_size
  obs_dir="${tmp_dir}/obs"
  mkdir -p "${obs_dir}"
  # The binary's shape checks may legitimately fail at --small scale (exit
  # 1); only a crash or batch failure (exit >= 2) fails the stage.
  for jobs in 1 8; do
    rc=0
    ./build/bench/fig20_network_size --small --jobs "${jobs}" \
      --metrics-out "${obs_dir}/m${jobs}.jsonl" \
      --trace-out "${obs_dir}/t${jobs}.json" \
      --csv-out "${obs_dir}/c${jobs}.csv" \
      --profile-out "${obs_dir}/p${jobs}.profile.json" >/dev/null || rc=$?
    if [[ "${rc}" -ge 2 ]]; then
      echo "fig20_network_size --jobs ${jobs} failed (exit ${rc})" >&2
      exit 1
    fi
    # The wall section is host noise by design; the deterministic section
    # (scope counts + sim-time coverage) must not depend on scheduling.
    python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1]))["deterministic"]))' \
      "${obs_dir}/p${jobs}.profile.json" > "${obs_dir}/det${jobs}.json"
  done
  cmp "${obs_dir}/m1.jsonl" "${obs_dir}/m8.jsonl"
  cmp "${obs_dir}/t1.json" "${obs_dir}/t8.json"
  cmp "${obs_dir}/c1.csv" "${obs_dir}/c8.csv"
  cmp "${obs_dir}/det1.json" "${obs_dir}/det8.json"
  echo "metrics/trace/csv/profile-deterministic byte-identical for --jobs 1 vs 8"

  # Sharded-driver invariance: the lane decomposition (explicit counts and
  # the auto selection, which resolves per job from server count x hardware
  # threads) and the worker count are pure implementation detail — metrics
  # and csv must be byte-identical for every (--shards, --jobs) combination,
  # "auto" included. (Manifests embed argv and the resolved lane counts, so
  # they are excluded by construction.)
  shard_dir="${tmp_dir}/obs-shards"
  mkdir -p "${shard_dir}"
  for sh in 1 2 8 auto; do
    for jobs in 1 8; do
      rc=0
      ./build/bench/fig20_network_size --small --jobs "${jobs}" \
        --shards "${sh}" \
        --metrics-out "${shard_dir}/m_s${sh}_j${jobs}.jsonl" \
        --csv-out "${shard_dir}/c_s${sh}_j${jobs}.csv" \
        --timeseries-out "${shard_dir}/ts_s${sh}_j${jobs}.json" \
        >/dev/null || rc=$?
      if [[ "${rc}" -ge 2 ]]; then
        echo "fig20_network_size --shards ${sh} --jobs ${jobs} failed" \
             "(exit ${rc})" >&2
        exit 1
      fi
      # The timeseries artifact splits like the profile: its host section
      # (shard health samples, barrier wall time) is scheduling noise, the
      # deterministic section (sampled series, totals, spans) must not
      # depend on the lane decomposition or the worker count.
      python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1]))["deterministic"]))' \
        "${shard_dir}/ts_s${sh}_j${jobs}.json" \
        > "${shard_dir}/tsdet_s${sh}_j${jobs}.json"
      cmp "${shard_dir}/m_s1_j1.jsonl" "${shard_dir}/m_s${sh}_j${jobs}.jsonl"
      cmp "${shard_dir}/c_s1_j1.csv" "${shard_dir}/c_s${sh}_j${jobs}.csv"
      cmp "${shard_dir}/tsdet_s1_j1.json" \
          "${shard_dir}/tsdet_s${sh}_j${jobs}.json"
      cmp "${shard_dir}/ts_s1_j1.csv" "${shard_dir}/ts_s${sh}_j${jobs}.csv"
    done
  done
  echo "sharded metrics/csv/timeseries byte-identical across --shards 1/2/8/auto x --jobs 1/8"
  python3 scripts/check_obs.py \
    --metrics "${shard_dir}/m_s1_j1.jsonl" \
    --timeseries "${shard_dir}/ts_s1_j1.json"

  # Time-resolved convergence curves: the sampler demo bench must survive
  # both job counts with byte-identical deterministic timeseries, and its
  # artifact must pass the schema + reconciliation checks.
  cmake --build build -j --target ext_convergence_curves
  conv_dir="${tmp_dir}/obs-conv"
  mkdir -p "${conv_dir}"
  for jobs in 1 8; do
    rc=0
    ./build/bench/ext_convergence_curves --small --jobs "${jobs}" \
      --metrics-out "${conv_dir}/m${jobs}.jsonl" \
      --timeseries-out "${conv_dir}/ts${jobs}.json" >/dev/null || rc=$?
    if [[ "${rc}" -ge 2 ]]; then
      echo "ext_convergence_curves --jobs ${jobs} failed (exit ${rc})" >&2
      exit 1
    fi
    python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1]))["deterministic"]))' \
      "${conv_dir}/ts${jobs}.json" > "${conv_dir}/tsdet${jobs}.json"
  done
  cmp "${conv_dir}/tsdet1.json" "${conv_dir}/tsdet8.json"
  cmp "${conv_dir}/ts1.csv" "${conv_dir}/ts8.csv"
  python3 scripts/check_obs.py --metrics "${conv_dir}/m1.jsonl" \
    --timeseries "${conv_dir}/ts1.json"
  echo "convergence-curve timeseries byte-identical for --jobs 1 vs 8"

  # Same contract on a second, newly auto-wired bench: ext_churn's rate-0
  # baseline jobs run sharded while churn jobs degrade to classic, and the
  # artifacts must not care which — --shards auto vs 1 across --jobs 1/8.
  cmake --build build -j --target ext_churn_robustness
  churn_dir="${tmp_dir}/obs-churn"
  mkdir -p "${churn_dir}"
  for sh in 1 auto; do
    for jobs in 1 8; do
      rc=0
      ./build/bench/ext_churn_robustness --small --jobs "${jobs}" \
        --shards "${sh}" \
        --metrics-out "${churn_dir}/m_s${sh}_j${jobs}.jsonl" \
        --csv-out "${churn_dir}/c_s${sh}_j${jobs}.csv" >/dev/null || rc=$?
      if [[ "${rc}" -ge 2 ]]; then
        echo "ext_churn_robustness --shards ${sh} --jobs ${jobs} failed" \
             "(exit ${rc})" >&2
        exit 1
      fi
      cmp "${churn_dir}/m_s1_j1.jsonl" "${churn_dir}/m_s${sh}_j${jobs}.jsonl"
      cmp "${churn_dir}/c_s1_j1.csv" "${churn_dir}/c_s${sh}_j${jobs}.csv"
    done
  done
  echo "ext_churn metrics/csv byte-identical across --shards 1/auto x --jobs 1/8"

  # Catalog runs: --shards selects the object-lane count (objects split by
  # ring position) and --jobs the worker threads; both are pure execution
  # knobs, so the per-object metrics/csv must be byte-identical across the
  # whole grid, "auto" included.
  cmake --build build -j --target ext_catalog_scale
  cat_dir="${tmp_dir}/obs-catalog"
  mkdir -p "${cat_dir}"
  for sh in 1 auto; do
    for jobs in 1 8; do
      rc=0
      ./build/bench/ext_catalog_scale --small --jobs "${jobs}" \
        --shards "${sh}" \
        --metrics-out "${cat_dir}/m_s${sh}_j${jobs}.jsonl" \
        --csv-out "${cat_dir}/c_s${sh}_j${jobs}.csv" >/dev/null || rc=$?
      if [[ "${rc}" -ge 2 ]]; then
        echo "ext_catalog_scale --shards ${sh} --jobs ${jobs} failed" \
             "(exit ${rc})" >&2
        exit 1
      fi
      cmp "${cat_dir}/m_s1_j1.jsonl" "${cat_dir}/m_s${sh}_j${jobs}.jsonl"
      cmp "${cat_dir}/c_s1_j1.csv" "${cat_dir}/c_s${sh}_j${jobs}.csv"
    done
  done
  echo "catalog metrics/csv byte-identical across --shards 1/auto x --jobs 1/8"

  # Pub/sub fan-out kernel sweep: --jobs parallelizes whole cells and
  # --shards selects the latency-fold lane count (integer-exact), so the
  # metrics/csv must be byte-identical across the grid; check_obs then
  # asserts the flow-control path actually fired (suppressions converted
  # into log catch-up reads) — a silently disabled window passes cmp but
  # not this.
  cmake --build build -j --target ext_fanout_scale
  fan_dir="${tmp_dir}/obs-fanout"
  mkdir -p "${fan_dir}"
  for sh in 1 auto; do
    for jobs in 1 8; do
      rc=0
      ./build/bench/ext_fanout_scale --small --jobs "${jobs}" \
        --shards "${sh}" \
        --metrics-out "${fan_dir}/m_s${sh}_j${jobs}.jsonl" \
        --csv-out "${fan_dir}/c_s${sh}_j${jobs}.csv" >/dev/null || rc=$?
      if [[ "${rc}" -ge 2 ]]; then
        echo "ext_fanout_scale --shards ${sh} --jobs ${jobs} failed" \
             "(exit ${rc})" >&2
        exit 1
      fi
      cmp "${fan_dir}/m_s1_j1.jsonl" "${fan_dir}/m_s${sh}_j${jobs}.jsonl"
      cmp "${fan_dir}/c_s1_j1.csv" "${fan_dir}/c_s${sh}_j${jobs}.csv"
    done
  done
  echo "fanout metrics/csv byte-identical across --shards 1/auto x --jobs 1/8"
  python3 scripts/check_obs.py --metrics "${fan_dir}/m_s1_j1.jsonl" \
    --csv "${fan_dir}/c_s1_j1.csv" \
    --require-metric 'pubsub.suppressed_deliveries>0' \
    --require-metric 'pubsub.catch_up_reads>0' \
    --require-metric 'fanout.messages>0'

  python3 scripts/check_obs.py --metrics "${obs_dir}/m1.jsonl" \
    --trace "${obs_dir}/t1.json" --csv "${obs_dir}/c1.csv" \
    --profile "${obs_dir}/p1.profile.json"

  # A different trace seed must change metric *values* but never the metric
  # *schema* (labels, names, histogram bucket layouts): exit 1 from
  # --fail-on-diff --fail-on-schema-change means value deltas and nothing
  # else (a schema change would exit 3, identical files would exit 0).
  rc=0
  ./build/bench/fig20_network_size --small --jobs 8 --seed 8 \
    --metrics-out "${obs_dir}/m_seed8.jsonl" >/dev/null || rc=$?
  if [[ "${rc}" -ge 2 ]]; then
    echo "fig20_network_size --seed 8 failed (exit ${rc})" >&2
    exit 1
  fi
  rc=0
  python3 scripts/obs_diff.py "${obs_dir}/m1.jsonl" "${obs_dir}/m_seed8.jsonl" \
    --fail-on-diff --fail-on-schema-change \
    --out "${obs_dir}/seed_diff.md" >/dev/null || rc=$?
  if [[ "${rc}" != "1" ]]; then
    echo "obs_diff: expected value-only deltas between seeds 7 and 8," \
         "got exit ${rc} (see ${obs_dir}/seed_diff.md)" >&2
    cat "${obs_dir}/seed_diff.md" >&2 || true
    exit 1
  fi
  echo "obs_diff: seed 7 vs 8 shows value deltas with an unchanged schema"
fi

if [[ "${run_fault}" == "1" ]]; then
  echo
  echo "== tier-1: fault injection + reliable delivery (determinism + metrics) =="
  cmake --build build -j --target ext_fault_tolerance
  fault_dir="${tmp_dir}/fault"
  mkdir -p "${fault_dir}"
  # Shape checks are calibrated and expected to pass even at --small scale;
  # only a crash or batch failure (exit >= 2) fails the stage, matching the
  # obs stage's contract.
  for jobs in 1 8; do
    rc=0
    ./build/bench/ext_fault_tolerance --small --jobs "${jobs}" \
      --metrics-out "${fault_dir}/m${jobs}.jsonl" \
      --csv-out "${fault_dir}/c${jobs}.csv" >/dev/null || rc=$?
    if [[ "${rc}" -ge 2 ]]; then
      echo "ext_fault_tolerance --jobs ${jobs} failed (exit ${rc})" >&2
      exit 1
    fi
  done
  cmp "${fault_dir}/m1.jsonl" "${fault_dir}/m8.jsonl"
  cmp "${fault_dir}/c1.csv" "${fault_dir}/c8.csv"
  echo "fault-injected metrics/csv byte-identical for --jobs 1 vs 8"
  # The fault counters must be present on every line *and* actually fire
  # somewhere in the sweep — a silently disabled injector passes cmp but
  # not this.
  python3 scripts/check_obs.py --metrics "${fault_dir}/m1.jsonl" \
    --csv "${fault_dir}/c1.csv" \
    --require-metric 'fault.messages_dropped>0' \
    --require-metric 'reliable.retries>0' \
    --require-metric 'reliable.give_ups' \
    --require-metric 'fault.messages_duplicated' \
    --require-metric 'fault.brownout_transitions'

  # Duplicates and delay jitter across lanes: duplicated copies, reliable
  # retries and their acks all cross the sharded merge queue, so the lane
  # count and the worker count must still not change a byte.
  for sh in 1 auto; do
    for jobs in 1 8; do
      rc=0
      ./build/bench/ext_fault_tolerance --small --dup 0.05 --jitter 0.02 \
        --jobs "${jobs}" --shards "${sh}" \
        --metrics-out "${fault_dir}/md_s${sh}_j${jobs}.jsonl" \
        --csv-out "${fault_dir}/cd_s${sh}_j${jobs}.csv" >/dev/null || rc=$?
      if [[ "${rc}" -ge 2 ]]; then
        echo "ext_fault_tolerance --dup --shards ${sh} --jobs ${jobs} failed" \
             "(exit ${rc})" >&2
        exit 1
      fi
      cmp "${fault_dir}/md_s1_j1.jsonl" "${fault_dir}/md_s${sh}_j${jobs}.jsonl"
      cmp "${fault_dir}/cd_s1_j1.csv" "${fault_dir}/cd_s${sh}_j${jobs}.csv"
    done
  done
  echo "duplicating fault metrics/csv byte-identical across --shards 1/auto x --jobs 1/8"
  python3 scripts/check_obs.py --metrics "${fault_dir}/md_s1_j1.jsonl" \
    --csv "${fault_dir}/cd_s1_j1.csv" \
    --require-metric 'fault.messages_duplicated>0' \
    --require-metric 'reliable.retries>0'
fi

echo
echo "== tier-1: measurement study (determinism across --jobs) =="
# The study runs its days on --jobs worker threads and merges them in day
# order, so the analysis output (stdout) and the merged engine metrics must
# not depend on the thread count. fig04 also keeps the DNS attachment's
# per-visit path under the check. fig10 and fig11_12 --small each fail one
# shape check at that scale (exit 1); only a crash (exit >= 2) fails the
# stage.
study_benches=(fig03_server_inconsistency fig04_user_perspective
  fig05_06_ttl_inference fig07_provider_inconsistency fig08_distance
  fig09_isp fig10_absence fig11_12_tree_existence)
cmake --build build -j --target "${study_benches[@]}"
study_dir="${tmp_dir}/study"
mkdir -p "${study_dir}"
for bench in "${study_benches[@]}"; do
  for jobs in 1 4; do
    rc=0
    ./build/bench/"${bench}" --small --jobs "${jobs}" \
      --metrics-out "${study_dir}/${bench}_m${jobs}.jsonl" \
      > "${study_dir}/${bench}_out${jobs}.txt" || rc=$?
    if [[ "${rc}" -ge 2 ]]; then
      echo "${bench} --jobs ${jobs} failed (exit ${rc})" >&2
      exit 1
    fi
    # The "metrics: ... -> PATH" line names the per-run output file, and
    # the "study: ... s wall" line times the run.
    grep -v -e '^metrics: ' -e '^study: .* s wall$' \
      "${study_dir}/${bench}_out${jobs}.txt" \
      > "${study_dir}/${bench}_stdout${jobs}.txt"
  done
  cmp "${study_dir}/${bench}_m1.jsonl" "${study_dir}/${bench}_m4.jsonl"
  cmp "${study_dir}/${bench}_stdout1.txt" "${study_dir}/${bench}_stdout4.txt"
done
echo "fig03-fig12 study metrics and stdout byte-identical for --jobs 1 vs 4"

echo
echo "tier-1: OK"
