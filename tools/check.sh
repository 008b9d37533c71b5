#!/usr/bin/env bash
# Sanitizer gate: build the whole tree (library, tools, tests, benches)
# under ASan + UBSan and run the full test suite, including
# fuzz_compiler_test and resilience_test, with sanitizer reports
# promoted to hard failures. Then build the concurrency-sensitive
# subset (the compile service and the fault registry it leans on)
# under ThreadSanitizer and run service_test + resilience_test, so
# data races in the worker pool fail the gate too. In between, a
# crash-consistency torture loop SIGKILLs dioscc mid-store and
# bit-flips cache entries to prove the disk cache self-heals.
# Run from anywhere; ~5-10 minutes.
#
#   tools/check.sh            # ASan+UBSan + TSan gates
#   tools/check.sh --fast     # reuse existing build dirs without reconfigure
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan"
build_tsan="$repo/build-tsan"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${1:-}" != "--fast" || ! -d "$build" ]]; then
    cmake --preset asan -S "$repo"
fi
cmake --build "$build" -j "$jobs"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "check.sh: all tests passed under ASan+UBSan"

# Rule soundness: every registered rewrite must prove equivalent under
# the fingerprint validator (non-zero exit on any unsound rule).
"$build/tools/dioscc" --lint-rules > /dev/null
echo "check.sh: rule soundness lint passed"

# Strategy self-check: every built-in saturation strategy must resolve
# all its rule references against the default rule set and round-trip
# through its canonical DSL text (non-zero exit on any failure).
"$build/tools/dioscc" --lint-strategies > /dev/null
echo "check.sh: strategy lint passed"

# Machine-verifier corpus gate (DESIGN.md §5i): every kernel in
# tools/kernels compiles under ASan with the full machine-code
# verification chain engaged — structural M001-M007 checks on the
# emitted program, the M008 scheduler-preservation proof, and symbolic
# machine-level translation validation of the scheduled code against
# the spec. --strict turns any degradation into a hard failure, and the
# debug build also runs the M-verifier startup self-check on each
# invocation (planted M004/M008 bugs must be caught before any real
# compile is attempted).
for ksp in "$repo"/tools/kernels/*.ksp; do
    DIOS_NO_RULE_LINT=1 "$build/tools/dioscc" "$ksp" \
        --verify-machine --validate --strict > /dev/null
done
echo "check.sh: machine verifier corpus gate passed"

# Crash-consistency torture (DESIGN.md §5e): SIGKILL dioscc --batch
# mid-store dozens of times via the DIOS_CACHE_KILL hook, then damage a
# quarter-plus of the surviving entries, and prove the store self-heals:
# warm runs serve artifacts byte-identical to a cold compile, damaged
# entries land in quarantine/ (never served), and no torn .tmp files
# survive recovery.
torture="$build/torture"
rm -rf "$torture"
mkdir -p "$torture"
cache="$torture/cache"
for n in 4 8 12; do
    cat > "$torture/vadd$n.dios" <<EOF
(kernel vadd$n
  (param n $n) (input A n) (input B n) (output C n)
  (for i 0 n (store C i (+ (load A i) (load B i)))))
EOF
    echo "$torture/vadd$n.dios" >> "$torture/manifest"
done

# Cold (cache-less) reference artifacts; the JSON line carries wall-clock
# timings, so only the emitted C below it is compared.
for n in 4 8 12; do
    DIOS_NO_RULE_LINT=1 "$build/tools/dioscc" "$torture/vadd$n.dios" \
        --json --emit-c 2> /dev/null | tail -n +2 > "$torture/cold$n.c"
done

mkdir -p "$cache"
kills=0
for i in $(seq 1 60); do
    # Evict one entry so every round performs at least one store, and
    # cycle the kill target over both kill points of all three stores
    # (targets past the last visit simply complete the run). Entries
    # live under key-sharded directories (shard/<2-hex>/); quarantined
    # files are not entries.
    find "$cache" -name '*.sexpr' -not -path '*/quarantine/*' \
        | head -n 1 | xargs -r rm -f
    status=0
    DIOS_CACHE_KILL=$((i % 6 + 1)) DIOS_NO_RULE_LINT=1 \
        "$build/tools/dioscc" --batch "$torture/manifest" \
        --cache-dir "$cache" > /dev/null 2>&1 || status=$?
    if [[ "$status" -eq 137 ]]; then
        kills=$((kills + 1))
    elif [[ "$status" -ne 0 ]]; then
        echo "check.sh: torture run $i failed with status $status" >&2
        exit 1
    fi
done
if [[ "$kills" -lt 10 ]]; then
    echo "check.sh: torture loop killed only $kills/60 runs" >&2
    exit 1
fi

# One clean run lets the recovery scan reclaim the orphans of the 60
# crashes and refill the store.
DIOS_NO_RULE_LINT=1 "$build/tools/dioscc" --batch "$torture/manifest" \
    --cache-dir "$cache" > /dev/null 2>&1

# Damage 2 of the 3 entries (>25%): truncate one, zero a span in another.
mapfile -t entries < <(find "$cache" -name '*.sexpr' \
    -not -path '*/quarantine/*' | sort)
if [[ "${#entries[@]}" -ne 3 ]]; then
    echo "check.sh: expected 3 cache entries, found ${#entries[@]}" >&2
    exit 1
fi
size=$(stat -c %s "${entries[0]}")
head -c $((size / 2)) "${entries[0]}" > "${entries[0]}.trunc"
mv "${entries[0]}.trunc" "${entries[0]}"
size=$(stat -c %s "${entries[1]}")
dd if=/dev/zero of="${entries[1]}" bs=1 seek=$((size / 2)) count=16 \
    conv=notrunc status=none

# The warm runs over the damaged store must still be byte-identical to
# the cold reference — corrupt entries are quarantined and recompiled,
# never served.
for n in 4 8 12; do
    DIOS_NO_RULE_LINT=1 "$build/tools/dioscc" "$torture/vadd$n.dios" \
        --json --emit-c --cache-dir "$cache" 2> /dev/null \
        | tail -n +2 > "$torture/warm$n.c"
    cmp "$torture/cold$n.c" "$torture/warm$n.c"
done

if find "$cache" -name '*.tmp.*' | grep -q .; then
    echo "check.sh: torn .tmp files survived recovery" >&2
    exit 1
fi
quarantined=$(find "$cache" -path '*/quarantine/*' -name '*.sexpr' \
    2> /dev/null | wc -l)
if [[ "$quarantined" -lt 2 ]]; then
    echo "check.sh: expected >=2 quarantined entries, got $quarantined" >&2
    exit 1
fi
echo "check.sh: crash-consistency torture passed" \
     "($kills/60 runs killed mid-store, $quarantined entries quarantined)"

# clang-tidy (repo-root .clang-tidy profile) over the analysis, machine,
# and VIR layers, using the ASan build's compile_commands.json. Optional:
# skipped when clang-tidy is not installed.
if command -v clang-tidy > /dev/null 2>&1; then
    clang-tidy -p "$build" --quiet \
        "$repo"/src/analysis/*.cpp "$repo"/src/machine/*.cpp \
        "$repo"/src/vir/*.cpp
    echo "check.sh: clang-tidy passed on src/analysis + src/machine + src/vir"
else
    echo "check.sh: clang-tidy not installed; skipping lint"
fi

# ASan and TSan cannot share a build; the threaded tests get their own.
if [[ "${1:-}" != "--fast" || ! -d "$build_tsan" ]]; then
    cmake --preset tsan -S "$repo"
fi
# dioscc_cli_test drives the TSan dioscc against a live TSan diosd, so
# the warm --cache-dir and --remote paths run over a real socket.
cmake --build "$build_tsan" -j "$jobs" \
      --target service_test resilience_test analysis_test \
               durability_test overload_test strategy_test daemon_test \
               dioscc diosd

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$build_tsan" --output-on-failure \
      -R '^(service_test|resilience_test|analysis_test|durability_test|overload_test|strategy_test|daemon_test|dioscc_cli_test)$'

echo "check.sh: service + resilience + analysis + durability + overload" \
     "+ strategy + daemon + dioscc CLI tests passed under TSan"

# E-matching benchmark gate: run the matcher microbenchmarks from the
# default (non-sanitized, RelWithDebInfo) build so timings are
# representative, write BENCH_ematch.json (cold saturation + search wall
# time, naive and op-indexed — the before/after pair), and fail when an
# op-indexed benchmark regresses more than 20% against the checked-in
# baseline (bench/BENCH_ematch_baseline.json). The naive entries are
# recorded for the speedup ratio but not gated — they are the "before".
build_bench="$repo/build"
if [[ "${1:-}" != "--fast" || ! -d "$build_bench" ]]; then
    cmake --preset default -S "$repo"
fi
cmake --build "$build_bench" -j "$jobs" --target egraph_micro
bench_json="$build_bench/BENCH_ematch.json"
"$build_bench/bench/egraph_micro" \
    --benchmark_filter='bm_(saturation_cold|search_all_rules)_' \
    --benchmark_out="$bench_json" --benchmark_out_format=json \
    > /dev/null
baseline="$repo/bench/BENCH_ematch_baseline.json"
awk '
    $0 ~ /"name":/ { split($0, q, "\""); name = q[4] }
    $0 ~ /"real_time":/ {
        v = $0; sub(/.*"real_time": */, "", v); sub(/,.*/, "", v)
        if (FILENAME == ARGV[1]) { base[name] = v + 0 }
        else                     { cur[name] = v + 0 }
    }
    END {
        status = 0
        for (n in base) {
            if (n !~ /indexed/) { continue }
            if (!(n in cur)) {
                printf "check.sh: benchmark %s missing from run\n", n
                status = 1
                continue
            }
            if (cur[n] > base[n] * 1.20) {
                printf "check.sh: BENCH REGRESSION %s: %.3f vs baseline %.3f (+%d%%)\n", \
                    n, cur[n], base[n], int((cur[n] / base[n] - 1) * 100)
                status = 1
            } else {
                printf "check.sh: bench ok %s: %.3f (baseline %.3f)\n", \
                    n, cur[n], base[n]
            }
        }
        sat_n = cur["bm_saturation_cold_naive/4"]
        sat_i = cur["bm_saturation_cold_indexed/4"]
        if (sat_i > 0 && sat_n > 0) {
            printf "check.sh: cold-saturation speedup (naive/indexed): %.2fx\n", \
                sat_n / sat_i
            if (sat_n / sat_i < 1.5) {
                printf "check.sh: indexed e-matching lost its speedup\n"
                status = 1
            }
        }
        exit status
    }' "$baseline" "$bench_json"
echo "check.sh: e-matching benchmark gate passed ($bench_json)"

# Figure-6 strategy gate (DESIGN.md §5h): sweep kernel sizes with and
# without the explosive full-AC rules, monolithic saturation vs the
# built-in phased strategy, and write BENCH_fig6.json. The bench exits
# non-zero when the phased strategy regresses extracted cost on any
# size, or fails to reach a fixed point / goal stop (or a strictly
# better extraction) on a size where the monolithic run was truncated
# by its budget — the "break the timeout wall" claim, enforced.
cmake --build "$build_bench" -j "$jobs" --target fig6_timeout
fig6_json="$build_bench/BENCH_fig6.json"
"$build_bench/bench/fig6_timeout" --out "$fig6_json" > /dev/null
echo "check.sh: fig6 strategy gate passed ($fig6_json)"

# Overload soak gate (DESIGN.md §5g): 100k mixed hot/cold/poison
# requests from 4 client threads with per-request fault injection armed
# via DIOS_FAULT. The soak binary itself exits non-zero on any lost or
# duplicated response, any shed response missing its retry_after_ms
# hint, or any served artifact that is not byte-identical to a cold
# single-threaded compile — so `set -e` makes those hard failures.
# Fault sites are compile-phase ones: fault-armed requests bypass the
# caches by design, so cache.* sites would never fire here.
cmake --build "$build_bench" -j "$jobs" --target service_soak
svc_json="$build_bench/BENCH_service.json"
DIOS_FAULT="runner.iter:1:*,extract.build,lower.term,emit.machine:2" \
    "$build_bench/bench/service_soak" --requests 100000 --threads 4 \
    --jobs 2 --out "$svc_json" > /dev/null
echo "check.sh: service soak passed (100k requests, faults armed)"

# A second, deliberately overloaded pass (tiny queue, more clients than
# workers) must actually exercise load shedding — and still lose
# nothing. The shed count is asserted, so admission control cannot
# silently rot into either "shed everything" or "never shed".
overload_json="$build_bench/BENCH_service_overload.json"
DIOS_FAULT="runner.iter:1:*,extract.build" \
    "$build_bench/bench/service_soak" --requests 20000 --threads 8 \
    --jobs 1 --capacity 4 --watermark 2 --out "$overload_json" \
    > /dev/null
sheds=$(sed -n 's/^"shed": \([0-9]*\).*/\1/p' "$overload_json")
if [[ -z "$sheds" || "$sheds" -eq 0 ]]; then
    echo "check.sh: overloaded soak shed nothing — watermark dead?" >&2
    exit 1
fi
echo "check.sh: overloaded soak passed ($sheds requests shed, all" \
     "with retry hints)"

# p99 latency gate against the checked-in baseline: >20% regression of
# the mixed-workload soak fails the build.
svc_baseline="$repo/bench/BENCH_service_baseline.json"
base_p99=$(sed -n 's/^"p99_ms": \([0-9.]*\).*/\1/p' "$svc_baseline")
cur_p99=$(sed -n 's/^"p99_ms": \([0-9.]*\).*/\1/p' "$svc_json")
if [[ -z "$base_p99" || -z "$cur_p99" ]]; then
    echo "check.sh: missing p99_ms in soak output or baseline" >&2
    exit 1
fi
if ! awk -v c="$cur_p99" -v b="$base_p99" \
        'BEGIN { exit !(c <= b * 1.20) }'; then
    echo "check.sh: SOAK REGRESSION p99 ${cur_p99}ms vs baseline" \
         "${base_p99}ms (>20%)" >&2
    exit 1
fi
echo "check.sh: service soak gate passed" \
     "(p99 ${cur_p99}ms <= 1.2 x baseline ${base_p99}ms, $svc_json)"

# Daemon chaos gate (DESIGN.md §5j): one diosd child + 3 client
# processes pushing mixed hot/cold/poison traffic over the Unix-socket
# protocol while the harness SIGKILLs and restarts the daemon >=5 times
# mid-flight (including one extended dead window that exhausts client
# retry budgets). The binary itself exits non-zero on any lost or
# duplicated response, any artifact not byte-identical to a cold local
# compile, or an unreachable-daemon request that failed to complete via
# local fallback — `set -e` makes those hard failures. On top of that,
# assert the chaos actually happened: kills >= 5, shed > 0 (admission
# control fired over the wire), fallback > 0 (graceful degradation
# fired).
cmake --build "$build_bench" -j "$jobs" --target daemon_soak
daemon_json="$build_bench/BENCH_daemon.json"
"$build_bench/bench/daemon_soak" --out "$daemon_json" > /dev/null
d_kills=$(sed -n 's/^"kills": \([0-9]*\).*/\1/p' "$daemon_json")
d_shed=$(sed -n 's/^"shed": \([0-9]*\).*/\1/p' "$daemon_json")
d_fallback=$(sed -n 's/^"fallback_local": \([0-9]*\).*/\1/p' "$daemon_json")
if [[ -z "$d_kills" || "$d_kills" -lt 5 ]]; then
    echo "check.sh: daemon soak killed the daemon only ${d_kills:-0}/5" \
         "times — chaos schedule never landed" >&2
    exit 1
fi
if [[ -z "$d_shed" || "$d_shed" -eq 0 ]]; then
    echo "check.sh: daemon soak shed nothing over the wire" >&2
    exit 1
fi
if [[ -z "$d_fallback" || "$d_fallback" -eq 0 ]]; then
    echo "check.sh: daemon soak never fell back to local compilation" >&2
    exit 1
fi

# p99 latency gate for the remote path, same 20% rule as the service
# soak.
daemon_baseline="$repo/bench/BENCH_daemon_baseline.json"
base_p99=$(sed -n 's/^"p99_ms": \([0-9.]*\).*/\1/p' "$daemon_baseline")
cur_p99=$(sed -n 's/^"p99_ms": \([0-9.]*\).*/\1/p' "$daemon_json")
if [[ -z "$base_p99" || -z "$cur_p99" ]]; then
    echo "check.sh: missing p99_ms in daemon soak output or baseline" >&2
    exit 1
fi
if ! awk -v c="$cur_p99" -v b="$base_p99" \
        'BEGIN { exit !(c <= b * 1.20) }'; then
    echo "check.sh: DAEMON SOAK REGRESSION p99 ${cur_p99}ms vs baseline" \
         "${base_p99}ms (>20%)" >&2
    exit 1
fi
echo "check.sh: daemon chaos gate passed ($d_kills kills, $d_shed shed," \
     "$d_fallback local fallbacks, p99 ${cur_p99}ms <= 1.2 x baseline" \
     "${base_p99}ms, $daemon_json)"

# Native-differential gate (DESIGN.md §5k): emit every Table-1 kernel as
# multi-ISA C at widths 2/4/8/16, compile each unit with the host
# toolchain, execute natively, and check ULP-bounded agreement against
# the cycle simulator (<= 4 ULP) and the scalar reference interpreter
# (5e-3 relative). The binary exits non-zero on any native
# disagreement, so `set -e` makes that a hard failure. Unsupported leaf
# widths never need skipping: every emitted unit carries SSE2 / AVX2 /
# AVX-512 / NEON leaves plus a portable scalar core, each chunked
# widest-first with a scalar tail, so whatever ISA the host dispatch
# picks executes every width — a width wider than the host's vectors
# just runs as multiple narrower chunks. The per-case "isa" field
# records which leaf the runtime dispatch actually selected.
cmake --build "$build_bench" -j "$jobs" --target native_diff
native_json="$build_bench/BENCH_native.json"
"$build_bench/bench/native_diff" --out "$native_json" > /dev/null
host_isa=$(sed -n 's/.*"isa": "\([a-z0-9_]*\)".*/\1/p' "$native_json" \
    | head -n 1)
echo "check.sh: native differential passed (host ISA:" \
     "${host_isa:-unknown}, $native_json)"

# Speedup gate against the checked-in baseline: the geomean
# native-vs-scalar speedup must not regress more than 20%.
native_baseline="$repo/bench/BENCH_native_baseline.json"
base_g=$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' \
    "$native_baseline")
cur_g=$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' "$native_json")
if [[ -z "$base_g" || -z "$cur_g" ]]; then
    echo "check.sh: missing geomean_speedup in native output or baseline" >&2
    exit 1
fi
if ! awk -v c="$cur_g" -v b="$base_g" \
        'BEGIN { exit !(c >= b * 0.80) }'; then
    echo "check.sh: NATIVE REGRESSION geomean speedup ${cur_g}x vs" \
         "baseline ${base_g}x (>20%)" >&2
    exit 1
fi
echo "check.sh: native speedup gate passed" \
     "(geomean ${cur_g}x >= 0.8 x baseline ${base_g}x)"

# A quick ASan pass of the harness itself (one kernel, all widths,
# correctness only): the dlopen/dlsym loader, the memory-image
# round-trip, and the ULP comparator all run instrumented. The emitted
# kernel .so stays uninstrumented (plain host cc), which ASan tolerates
# in the dlopen direction.
"$build/bench/native_diff" --check-only --filter QProd \
    --out "$build/BENCH_native_asan.json" > /dev/null
echo "check.sh: native differential passed under ASan (QProd subset)"
