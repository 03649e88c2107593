#!/usr/bin/env bash
# Determinism lint: the simulation/analysis core must be free of wall-clock
# and ambient-randomness calls, so campaigns are bit-reproducible for a fixed
# seed regardless of thread count or host load.
#
# Allowlist: src/util/rng.hpp (seeds the deterministic PRNG) and
# src/util/time.hpp (MonotonicStopwatch, observability only). Everything else
# under src/ AND bench/ must go through those two headers — benches report
# wall-clock throughput, but via the fenced stopwatch, so their STATISTICS
# stay seed-reproducible.
set -u

cd "$(dirname "$0")/.."

# Pattern -> what it would smuggle in.
patterns=(
  '(^|[^_[:alnum:]])s?rand\('  # libc rand()/srand()
  'std::random_device'    # non-deterministic seed source
  'system_clock'          # wall clock
  'steady_clock'          # wall clock (use util::MonotonicStopwatch)
  'high_resolution_clock' # wall clock
  '[^_[:alnum:]]time\('   # libc time()
)

allow='^src/util/(rng|time)\.hpp:'
status=0
for pattern in "${patterns[@]}"; do
  hits=$(grep -rnE "$pattern" src bench --include='*.cpp' --include='*.hpp' | grep -Ev "$allow")
  if [ -n "$hits" ]; then
    echo "determinism lint: forbidden pattern '$pattern' in src/ or bench/:" >&2
    echo "$hits" >&2
    status=1
  fi
done

# Chrome-trace re-export determinism: exporting the same recorder twice must
# produce byte-identical JSON (tests/obs_trace_test covers it). Runs whenever
# a built test binary is found; on a fresh checkout the check is skipped.
for build in build build-cov build-asan build-tsan; do
  exe="$build/tests/obs_trace_test"
  if [ -x "$exe" ]; then
    if "$exe" --gtest_filter='*ReExportIsByteIdentical*' >/dev/null 2>&1; then
      echo "determinism lint: trace re-export byte-identical ($exe)"
    else
      echo "determinism lint: Chrome-trace re-export is not byte-identical ($exe)" >&2
      status=1
    fi
    break
  fi
done

# Fuzzer-replay determinism: replaying a checked-in corpus case twice must
# print byte-identical reports (the replay path exercises the simulator, the
# oracles and the signature fingerprint end to end — any divergence means a
# nondeterminism crept into the scenario pipeline). Skipped on a fresh
# checkout, like the trace check above.
for build in build build-cov build-asan build-tsan; do
  exe="$build/tools/nlft-fuzz"
  if [ -x "$exe" ]; then
    case=$(ls tests/corpus/case-*.json 2>/dev/null | head -n 1)
    if [ -n "$case" ]; then
      a=$("$exe" --replay "$case" 2>&1)
      rc_a=$?
      b=$("$exe" --replay "$case" 2>&1)
      rc_b=$?
      if [ "$rc_a" -eq 0 ] && [ "$rc_b" -eq 0 ] && [ "$a" = "$b" ]; then
        echo "determinism lint: nlft-fuzz --replay byte-identical ($exe)"
      else
        echo "determinism lint: nlft-fuzz --replay diverged or failed ($exe, $case)" >&2
        echo "$a" >&2
        status=1
      fi
    fi
    break
  fi
done

# Fingerprint determinism: two straight runs of one checked-in corpus case
# must print byte-identical metrics fingerprints (nlft-fuzz --fingerprint;
# the full split-equivalence suite is ctest -L snapshot). Skipped on a fresh
# checkout, like the trace check above.
for build in build build-cov build-asan build-tsan; do
  exe="$build/tools/nlft-fuzz"
  if [ -x "$exe" ]; then
    case=$(ls tests/corpus/case-*.json 2>/dev/null | head -n 1)
    if [ -n "$case" ]; then
      a=$("$exe" --fingerprint "$case" 2>&1)
      rc_a=$?
      b=$("$exe" --fingerprint "$case" 2>&1)
      rc_b=$?
      if [ "$rc_a" -eq 0 ] && [ "$rc_b" -eq 0 ] && [ -n "$a" ] && [ "$a" = "$b" ]; then
        echo "determinism lint: nlft-fuzz --fingerprint byte-identical ($exe)"
      else
        echo "determinism lint: nlft-fuzz --fingerprint diverged or failed ($exe, $case)" >&2
        echo "  first:  $a" >&2
        echo "  second: $b" >&2
        status=1
      fi
    fi
    break
  fi
done

# Static-verifier determinism: two nlft-verify --json runs over the full
# configuration registry must produce byte-identical reports (src/verify is
# pure analysis — any divergence means ambient state leaked in). Skipped on
# a fresh checkout, like the trace check above.
for build in build build-cov build-asan build-tsan; do
  exe="$build/tools/nlft-verify"
  if [ -x "$exe" ]; then
    a=$("$exe" --json 2>/dev/null)
    b=$("$exe" --json 2>/dev/null)
    if [ -n "$a" ] && [ "$a" = "$b" ]; then
      echo "determinism lint: nlft-verify --json byte-identical ($exe)"
    else
      echo "determinism lint: nlft-verify --json output is not byte-identical ($exe)" >&2
      status=1
    fi
    break
  fi
done

if [ "$status" -eq 0 ]; then
  echo "determinism lint: clean"
fi
exit "$status"
