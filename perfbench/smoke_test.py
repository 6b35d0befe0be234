#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny sizes through run.py, untraced
and traced, and checks that
  * the last stdout line is the result JSON, correct, with no failures;
  * every end_to_end metric (untraced) or per_layer metric (traced) is
    printed, with the unit BENCHMARK.json gives it, and nothing else;
  * two untraced runs at the same seed print the same sim_digest, and a
    run at another seed prints a different one.
Exits 0 when every check holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                       timeout=600, check=False)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {r.returncode}")
    digest = re.search(r"^sim_digest ([0-9a-f]{16})", r.stdout, re.M)
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1]), \
        digest.group(1) if digest else None


def check_metrics(result, spec, errors, where):
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            errors.append(f"{where}: metric {name} missing")
        elif got[name].get("unit") != unit:
            errors.append(f"{where}: {name} unit {got[name].get('unit')} "
                          f"!= {unit}")
        elif not isinstance(got[name].get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    for name in set(got) - set(want):
        errors.append(f"{where}: unexpected metric {name}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if result["attempted"] < 1:
        errors.append(f"{where}: attempted < 1")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for wl in (w["name"] for w in bench["workloads"]):
        res, digest = run(wl, 1, 0)
        check_metrics(res, bench["end_to_end"], errors, f"{wl} untraced")
        again, digest2 = run(wl, 1, 0)
        if digest is None or digest != digest2:
            errors.append(f"{wl}: sim_digest differs at one seed "
                          f"({digest} vs {digest2})")
        _, other = run(wl, 2, 0)
        if other == digest:
            errors.append(f"{wl}: sim_digest ignores the seed")
        traced, _ = run(wl, 1, 1)
        check_metrics(traced, bench["per_layer"], errors, f"{wl} traced")
        print(f"{wl}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("PASS" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
