#!/usr/bin/env bash
# Crash-resume smoke test: for each training method, run the resilient
# example uninterrupted to get a reference per-epoch JSONL, then run the
# same configuration again with a SIGKILL injected mid-training
# (SAMPNN_FAULTS=kill@N), resume from the latest checkpoint, and require
# the resumed run's per-epoch losses/accuracies to be bitwise identical to
# the reference.
#
# Two legs:
#   - every method at --hidden=32 with the default kernel settings;
#   - a cross-thread leg (standard, mc) at --hidden=256, where the layer
#     products cross the parallel-GEMM threshold: reference and crash runs
#     at SAMPNN_THREADS=4, resume at SAMPNN_THREADS=1. The packed GEMM is
#     bitwise-identical for any worker count, so the diff stays exact.
#
# Usage: scripts/crash_resume_smoke.sh [path/to/resilient_training]
# (default binary: build/release/examples/resilient_training)

set -u

BIN="${1:-build/release/examples/resilient_training}"
if [[ ! -x "$BIN" ]]; then
  echo "crash_resume_smoke: binary not found: $BIN" >&2
  echo "build it with: cmake --build --preset release --target resilient_training" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# scale=100 gives 600 train examples = 30 batches/epoch = 90 total steps,
# so kill@50 lands mid-epoch-2, after several checkpoints (cadence 10).
COMMON=(--dataset=mnist --scale=100 --epochs=3 --batch=20 --depth=2
        --seed=42 --checkpoint_every=10)
KILL_STEP=50

FAILED=0
CASES=0

# run_case NAME METHOD HIDDEN TRAIN_THREADS RESUME_THREADS
# (an empty thread count leaves SAMPNN_THREADS as inherited)
run_case() {
  local name="$1" method="$2" hidden="$3" train_t="$4" resume_t="$5"
  local dir="$WORK/$name"
  local args=("${COMMON[@]}" --hidden="$hidden" --method="$method")
  CASES=$((CASES + 1))
  mkdir -p "$dir"
  echo "== $name: reference run =="
  env ${train_t:+SAMPNN_THREADS="$train_t"} "$BIN" "${args[@]}" \
      --checkpoint_dir="$dir/ckpt_ref" \
      --epochs_jsonl="$dir/reference.jsonl" || { FAILED=1; return; }

  echo "== $name: crash run (SIGKILL at step $KILL_STEP) =="
  env ${train_t:+SAMPNN_THREADS="$train_t"} SAMPNN_FAULTS="kill@$KILL_STEP" \
      "$BIN" "${args[@]}" \
      --checkpoint_dir="$dir/ckpt" \
      --epochs_jsonl="$dir/crashed.jsonl"
  local status=$?
  if [[ $status -ne 137 ]]; then
    echo "crash_resume_smoke: $name: expected SIGKILL exit 137, got $status" >&2
    FAILED=1
    return
  fi
  if [[ -e "$dir/crashed.jsonl" ]]; then
    echo "crash_resume_smoke: $name: killed run must not have written output" >&2
    FAILED=1
    return
  fi
  if ! ls "$dir/ckpt"/ckpt-*.snnckpt >/dev/null 2>&1; then
    echo "crash_resume_smoke: $name: no checkpoint survived the kill" >&2
    FAILED=1
    return
  fi

  echo "== $name: resume run =="
  env ${resume_t:+SAMPNN_THREADS="$resume_t"} "$BIN" "${args[@]}" \
      --checkpoint_dir="$dir/ckpt" --resume \
      --epochs_jsonl="$dir/resumed.jsonl" || { FAILED=1; return; }

  if python3 "$(dirname "$0")/diff_epoch_jsonl.py" \
      "$dir/reference.jsonl" "$dir/resumed.jsonl"; then
    echo "== $name: OK (resume bitwise-identical) =="
  else
    echo "crash_resume_smoke: $name: resumed run diverged from reference" >&2
    FAILED=1
  fi
}

for method in standard dropout adaptive-dropout alsh mc; do
  run_case "$method" "$method" 32 "" ""
done
for method in standard mc; do
  run_case "$method-threads4to1" "$method" 256 4 1
done

if [[ $FAILED -ne 0 ]]; then
  echo "crash_resume_smoke: FAILED" >&2
  exit 1
fi
echo "crash_resume_smoke: all $CASES cases OK"
