#!/usr/bin/env bash
# Smoke test of the command line, end to end: batches serial, striped and
# pinned to one CPU, their records and frames compared byte for byte, replays
# of single runs, and the exit codes of a refused config and a bad records file.
#
#     tools/smoke.sh [COMMAND ...]
#
# COMMAND runs the CLI: `sentinel` (the default) for a regular install, whose
# package data holds the fixture CSVs, or from a checkout
# `PYTHONPATH=src tools/smoke.sh python3 -m sentinel.cli`. Works in a fresh
# temporary directory, removed on exit; exits non-zero at the first failure.
set -Eeuo pipefail
# Names the failing line: the caller's, for a failure inside sentinel().
trap 'echo "smoke: failed at line $((BASH_LINENO[0] ? BASH_LINENO[0] : LINENO))" >&2' ERR
if [ $# -eq 0 ]; then
  set -- sentinel
fi
cli=("$@")
sentinel() { "${cli[@]}" "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

SENTINEL_THREADS=2 sentinel simulate --eas 1 --runs 4 --seed 1 --frames "$tmp/frames" --out "$tmp/r.csv"
sentinel aggregate --in "$tmp/r.csv" --verify
# A replay of each run must equal the frame the batch wrote: on two
# workers the simulate process plays run 1 and a forked child run 2.
for run in 1 2; do
  sentinel render --eas 1 --seed 1 --run $run --out "$tmp/world.ppm"
  cmp "$tmp/frames/run_$run.ppm" "$tmp/world.ppm"
done
# The same off the centre, where the patrol circle crosses the west
# wall: every drone and agent move goes through clamp_to_map.
printf 'center_x = 20\nea_monitor_radius = 40\n' > "$tmp/edge.cfg"
SENTINEL_THREADS=2 sentinel simulate --eas 1 --runs 4 --seed 1 --config "$tmp/edge.cfg" --frames "$tmp/edge-frames" --out "$tmp/edge.csv"
for run in 1 2; do
  sentinel render --eas 1 --seed 1 --run $run --config "$tmp/edge.cfg" --out "$tmp/edge.ppm"
  cmp "$tmp/edge-frames/run_$run.ppm" "$tmp/edge.ppm"
done
# Serial and striped play write the same records.
SENTINEL_THREADS=1 sentinel simulate --eas 1 --runs 4 --seed 1 --out "$tmp/serial.csv"
SENTINEL_THREADS=2 sentinel simulate --eas 1 --runs 4 --seed 1 --out "$tmp/striped.csv"
cmp "$tmp/serial.csv" "$tmp/striped.csv"
# Each stripe is pinned to one of the CPUs the batch may use, round
# robin: on one CPU both stripes share it, and the records and
# frames are those of serial play.
SENTINEL_THREADS=1 sentinel simulate --eas 1 --runs 4 --seed 1 --frames "$tmp/serial-frames" --out "$tmp/serial-framed.csv"
taskset -c 0 env SENTINEL_THREADS=2 "${cli[@]}" simulate --eas 1 --runs 4 --seed 1 --frames "$tmp/one-cpu-frames" --out "$tmp/one-cpu.csv"
cmp "$tmp/serial-framed.csv" "$tmp/one-cpu.csv"
for run in 1 2 3 4; do
  cmp "$tmp/serial-frames/run_$run.ppm" "$tmp/one-cpu-frames/run_$run.ppm"
done
# Each process plays a config's opening once, through the blind
# window after the first spawn, and starts every episode from it,
# catching up its own enemies: the same for a batch that ends
# before the first spawn, for one that ends inside the window
# after it, and for a first spawn at enemy_spawn_period. Later blind
# stretches are played in one call each: at step 45, runs 2 and 3 end
# inside one, and at step 50, runs 1 and 4 end inside one that starts
# with a drone on its way back to its arc (from steps 45 and 46). The
# replays of runs 2 and 4 check the worlds that the forked child played.
printf 'time_limit_steps = 10\n' > "$tmp/short.cfg"
printf 'time_limit_steps = 25\n' > "$tmp/window.cfg"
printf 'first_spawn_step = 0\n' > "$tmp/spawn0.cfg"
printf 'time_limit_steps = 45\n' > "$tmp/stretch.cfg"
printf 'time_limit_steps = 50\n' > "$tmp/return.cfg"
for c in short window spawn0 stretch return; do
  SENTINEL_THREADS=1 sentinel simulate --eas 1 --runs 4 --seed 1 --config "$tmp/$c.cfg" --out "$tmp/$c-serial.csv"
  SENTINEL_THREADS=2 sentinel simulate --eas 1 --runs 4 --seed 1 --config "$tmp/$c.cfg" --frames "$tmp/$c-frames" --out "$tmp/$c-striped.csv"
  cmp "$tmp/$c-serial.csv" "$tmp/$c-striped.csv"
done
for c in window spawn0 stretch; do
  sentinel render --eas 1 --seed 1 --run 2 --config "$tmp/$c.cfg" --out "$tmp/$c.ppm"
  cmp "$tmp/$c-frames/run_2.ppm" "$tmp/$c.ppm"
done
sentinel render --eas 1 --seed 1 --run 4 --config "$tmp/return.cfg" --out "$tmp/return.ppm"
cmp "$tmp/return-frames/run_4.ppm" "$tmp/return.ppm"
# The CLI validates the config once, after the flags apply: 7
# malicious of 6 drones is refused, exit 1, before a run is played.
printf 'num_malicious = 7\n' > "$tmp/bad.cfg"
code=0; sentinel simulate --eas 1 --runs 2 --seed 1 --config "$tmp/bad.cfg" --out "$tmp/bad.csv" || code=$?
test "$code" -eq 1
test ! -e "$tmp/bad.csv"
# A records file whose line 2 has 7 fields: exit 1, and the one
# RecordError names the line.
{ head -n 1 "$tmp/r.csv"; printf '1,1,fail,116,11.60,5,1\n'; } > "$tmp/seven.csv"
code=0; sentinel aggregate --in "$tmp/seven.csv" 2> "$tmp/seven.err" || code=$?
test "$code" -eq 1
head -n 1 "$tmp/seven.err" | grep -q '^error: line 2: '
echo "smoke: ok"
