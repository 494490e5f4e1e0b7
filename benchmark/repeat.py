#!/usr/bin/env python3
"""Run N full sets of the benchmark and print how well they agree.

    python3 benchmark/repeat.py [N] [--runs R] [--seconds S] [--workload W ...]

A *set* is what the driver measures: every workload R times untraced
(seeds 1..R) plus once traced (seed 1). For every end-to-end metric x
workload cell this prints, per set, the median and the spread between
the runs (interquartile range over median, `statistics.quantiles(n=4)`)
against the bound in BENCHMARK.json, and between consecutive sets how
much the median got worse. It also checks what must repeat exactly:
`journal_bytes_per_day` per (workload, seed), and every per-layer
metric whose unit is `count` or `bytes`.

Exit code 1 when a spread or a shift exceeds its bound, when a count
differs, or when any run reports `correct: false`.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: correct=false\n{proc.stdout}")
    return result, wall


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="?", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    e2e = manifest["end_to_end"]
    layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    bad = False

    # sets[s][workload] = {"runs": {seed: metrics}, "traced": metrics}
    sets = []
    for s in range(args.sets):
        t_set = time.time()
        this = {}
        for w in workloads:
            runs, walls = {}, []
            for seed in range(1, args.runs + 1):
                result, wall = run(manifest["command"], w, seed, args.seconds, 0)
                got = set(result["metrics"])
                want = {m["name"] for m in e2e}
                if got != want:
                    sys.exit(f"{w}: end-to-end metrics differ from BENCHMARK.json: {got ^ want}")
                runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
                walls.append(wall)
            traced, wall = run(manifest["command"], w, 1, args.seconds, 1)
            if set(traced["metrics"]) != set(layer_units):
                sys.exit(f"{w}: per-layer metrics differ from BENCHMARK.json")
            walls.append(wall)
            this[w] = {"runs": runs, "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"set {s + 1} {w}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f}s each",
                  flush=True)
        sets.append(this)
        print(f"set {s + 1} took {time.time() - t_set:.0f}s\n")

    print(f"{'workload':<18}{'metric':<24}{'set':>4}{'median':>16}{'spread':>9}{'bound':>7}  verdict")
    for w in workloads:
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, this in enumerate(sets):
                values = [r[name] for r in this[w]["runs"].values()]
                med = statistics.median(values)
                medians.append(med)
                sp = spread(values) if len(values) >= 2 else 0.0
                # setup_s' spread is reported, not gated (the driver
                # gates only its median shift).
                if name == "setup_s" or sp <= bound / 3:
                    verdict = "ok"
                elif sp <= bound:
                    verdict = "within bound, above a third of it"
                else:
                    verdict, bad = "SPREAD EXCEEDS BOUND", True
                print(f"{w:<18}{name:<24}{s + 1:>4}{med:>16.6g}{sp:>9.4f}{bound:>7.2f}  {verdict}")
            for s in range(1, len(medians)):
                a, b = medians[s - 1], medians[s]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "MEDIAN SHIFT EXCEEDS BOUND"
                bad |= worse > bound
                print(f"{w:<18}{name:<24}{f'{s}>{s + 1}':>4}{'':>16}{worse:>+9.4f}{bound:>7.2f}  {verdict}")

    # What must repeat exactly between sets.
    for s in range(1, len(sets)):
        for w in workloads:
            a, b = sets[s - 1][w], sets[s][w]
            for seed in a["runs"]:
                x, y = a["runs"][seed]["journal_bytes_per_day"], b["runs"][seed]["journal_bytes_per_day"]
                if x != y:
                    bad = True
                    print(f"{w} seed {seed}: journal_bytes_per_day {x} != {y} between sets {s} and {s + 1}")
            for name, unit in layer_units.items():
                # Socket-phase values are rates of a timed loop, not counts.
                if unit in ("count", "bytes") and a["traced"][name] != b["traced"][name]:
                    bad = True
                    print(f"{w}: {name} {a['traced'][name]} != {b['traced'][name]} between sets {s} and {s + 1}")
    if len(sets) > 1 and not bad:
        print("\nevery count repeats exactly between sets; every spread and shift is within its bound")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
