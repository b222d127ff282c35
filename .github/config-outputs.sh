#!/usr/bin/env bash
# Run every case of the merge-base comparison under the stburgers source
# in <src-dir>, with the configs of the checkout this script lies in, and
# write each case's outputs to <out-dir>/<case>/: its reports and CSVs,
# stdout.txt, stderr.txt and exit_code.txt, with the "timestamp" lines
# removed.  Two runs, one per source tree, compare with `diff -r`:
#   bash .github/config-outputs.sh <base>/src out/base
#   bash .github/config-outputs.sh src out/head
#   diff -rq out/base out/head
#
# The cases: each checked-in config; configs/verify.json at seed 1, seed 2
# and mu = 0.1, so that the suite's bytes are compared at more than one
# seed, and at 7 and 23 samples, whose last block of samples and of
# Cole-Hopf cases is shorter than verify.BLOCK, and at mu = 1e-4 with 2
# samples, whose Cole-Hopf projection fails (exit 3, empty stderr), so
# that the failing-suite path is compared too; the CLI paths that no
# checked-in config reaches: sweep_mu over n_modes and forcing_amplitude,
# the exit-2 reports of solve, scale and sweep_mu at one Newton
# iteration, the config errors of a negative mu, of a subnormal mu
# (mu = 1e-310) and of three bad sweep values, and those of three scale
# runs whose normalized problem leaves the float range (L = 1e-200,
# L = 1e200, T = 1e300); configs/colehopf.json at 100 monodromy steps,
# whose last block of period-map steps is shorter than
# colehopf.PERIOD_MAP_BLOCK, and at n_t = 24, n_x = 2, whose Cole-Hopf
# chain builds the time-heavy layouts (phi's 145 time modes on a
# 580-point grid); and the config errors of a solve and a sweep whose two
# outputs name one file.
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 <src-dir> <out-dir>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
configs="$root/configs"

# run <case> <command> <config> [--override KEY=VALUE]...
run() {
  local dir="$out/$1"
  shift
  mkdir -p "$dir"
  local status=0
  (cd "$dir" && PYTHONPATH="$src" python -m stburgers.cli "$1" --config "${@:2}" \
    > stdout.txt 2> stderr.txt) || status=$?
  echo "$status" > "$dir/exit_code.txt"
  sed -i '/"timestamp"/d' "$dir"/*
}

command_of() {
  sh "$root/.github/config-command.sh" "$1"
}

for cfg in "$configs"/*.json; do
  run "$(basename "$cfg" .json)" "$(command_of "$cfg")" "$cfg"
done
for override in seed=1 seed=2 mu=0.1 n_samples=7 n_samples=23; do
  run "verify_$override" verify "$configs/verify.json" --override "$override"
done
run verify_mu_1e-4_n_samples_2 verify "$configs/verify.json" \
  --override mu=1e-4 --override n_samples=2
sweep="$configs/sweep_mu.json"
run sweep_n_modes sweep "$sweep" --override 'sweep={"param":"n_modes","values":[6,8]}'
run sweep_forcing_amplitude sweep "$sweep" \
  --override 'sweep={"param":"forcing_amplitude","values":[0.5,2]}'
for name in solve scale sweep_mu; do
  cfg="$configs/$name.json"
  run "${name}_max_newton_1" "$(command_of "$cfg")" "$cfg" \
    --override solver.method=newton --override solver.max_newton=1
done
run solve_negative_mu solve "$configs/solve.json" --override mu=-1
run solve_subnormal_mu solve "$configs/solve.json" --override mu=1e-310
run sweep_negative_mu sweep "$sweep" --override 'sweep.values=[1.0,-0.5]'
run sweep_n_modes_0 sweep "$sweep" --override 'sweep={"param":"n_modes","values":[4,0]}'
run sweep_n_modes_over_budget sweep "$sweep" \
  --override 'sweep={"param":"n_modes","values":[4,100000]}'
for override in length=1e-200 length=1e200 period=1e300; do
  run "scale_$override" scale "$configs/scale.json" --override "$override"
done
run colehopf_monodromy_steps_100 colehopf "$configs/colehopf.json" --override monodromy_steps=100
run colehopf_n_t_24_n_x_2 colehopf "$configs/colehopf.json" --override n_t=24 --override n_x=2
for name in solve sweep_mu; do
  cfg="$configs/$name.json"
  run "${name}_outputs_one_file" "$(command_of "$cfg")" "$cfg" \
    --override outputs.report_path=out.txt --override outputs.field_csv_path=out.txt
done
