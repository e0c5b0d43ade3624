#!/usr/bin/env bash
# End-to-end crash/resume determinism check (docs/CHECKPOINT.md).
#
# For each fabric (Opera, the folded Clos on the same sharded engine, and
# RotorNet on the RotorLB controller it shares with Opera) and each shard
# count, runs a quick 12-rack sweep three ways — and likewise a 108-rack
# day-in-the-life on the fluid engine, long enough in simulated time that
# the checkpoint lands while flows are still being admitted:
#   1. uninterrupted, no guard flags — the reference;
#   2. with --checkpoint-every, SIGKILLed as soon as a checkpoint lands
#      (SIGKILL is unmaskable: this is a real crash, not a graceful exit);
#   3. resumed from the checkpoint the killed run left behind.
# The resumed run's CSV must be bit-identical to the reference after
# strip_wall_fields.py blanks the wall-clock measurements. Finally checks
# the SIGTERM path: graceful exit code 42, checkpoint written, partial
# report flushed.
#
#   scripts/crash_resume_test.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
bench="$build_dir/bench_custom"
strip="$(dirname "$0")/strip_wall_fields.py"
if [[ ! -x "$bench" ]]; then
  echo "error: $bench not found (build first)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

sweep_args=(--racks=12 --hosts-per-rack=4 --workload=permutation
            --flow-kb=20000 --horizon-ms=100 --seed=7 --csv)
failures=0

wait_for_checkpoint() {
  # Poll until the run has written its first checkpoint (tmp+rename makes
  # the appearance atomic), so the SIGKILL lands genuinely mid-run.
  local path="$1" pid="$2"
  for _ in $(seq 1 200); do
    [[ -s "$path" ]] && return 0
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.05
  done
  return 1
}

# crash_resume LABEL THREADS BENCH-ARGS...: reference, SIGKILLed, resumed.
crash_resume() {
  local label="$1" threads="$2"
  shift 2
  echo "== crash/resume: $label at --threads=$threads"
  local run="$label-t$threads"
  local ck="$work/$run.ckpt"

  "$bench" "$@" --threads="$threads" \
    > "$work/ref-$run.csv" 2> "$work/ref-$run.err"

  "$bench" "$@" --threads="$threads" \
    --checkpoint-every=5 --checkpoint-to="$ck" \
    > "$work/killed-$run.csv" 2> "$work/killed-$run.err" &
  local pid=$!
  if wait_for_checkpoint "$ck" "$pid"; then
    kill -KILL "$pid" 2>/dev/null || true
  fi
  wait "$pid" 2>/dev/null || true
  if [[ ! -s "$ck" ]]; then
    echo "FAIL: no checkpoint written before the run ended ($run)" >&2
    failures=$((failures + 1))
    return
  fi

  "$bench" --resume="$ck" --threads="$threads" --csv \
    > "$work/resumed-$run.csv" 2> "$work/resumed-$run.err"
  grep -q "fingerprint .* verified" "$work/resumed-$run.err" || {
    echo "FAIL: resume did not verify the checkpoint fingerprint ($run)" >&2
    failures=$((failures + 1))
  }

  if diff <(python3 "$strip" "$work/ref-$run.csv") \
          <(python3 "$strip" "$work/resumed-$run.csv"); then
    echo "   resumed CSV bit-identical to uninterrupted reference"
  else
    echo "FAIL: resumed run differs from reference ($run)" >&2
    failures=$((failures + 1))
  fi
}

fluid_args=(--fabric=opera --engine=fluid --racks=108 --hosts-per-rack=6
            --scenario="ditl:phase-ms=400,load=0.3" --horizon-ms=2500
            --seed=7 --csv)

for fabric in opera clos rotornet; do
  for threads in 1 4; do
    crash_resume "$fabric" "$threads" --fabric="$fabric" "${sweep_args[@]}"
  done
done
for threads in 1 4; do
  crash_resume opera-fluid "$threads" "${fluid_args[@]}"
done

echo "== SIGTERM graceful exit"
ck="$work/sigterm.ckpt"
"$bench" --fabric=opera "${sweep_args[@]}" --checkpoint-to="$ck" --checkpoint-every=5 \
  > "$work/sigterm.csv" 2> "$work/sigterm.err" &
pid=$!
wait_for_checkpoint "$ck" "$pid" || true
kill -TERM "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if (( rc != 42 )); then
  echo "FAIL: SIGTERM exit code $rc, expected 42" >&2
  failures=$((failures + 1))
fi
grep -q "PARTIAL RUN" "$work/sigterm.csv" || {
  echo "FAIL: SIGTERM run did not flush a partial report" >&2
  failures=$((failures + 1))
}
[[ -s "$ck" ]] || {
  echo "FAIL: SIGTERM run left no checkpoint" >&2
  failures=$((failures + 1))
}

if (( failures > 0 )); then
  echo "crash_resume_test: $failures failure(s)" >&2
  exit 1
fi
echo "crash_resume_test: all checks passed"
