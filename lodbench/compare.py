#!/usr/bin/env python3
"""Compares two sets of lodbench results, metric by metric.

  python3 lodbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as run.py writes them
(<workload>.seed<n>.trace<0|1>.json, by default under
.bench_build/lodbench-results/); copy that directory aside between the two
sets.

Answers come first: a new run whose answers were wrong (correct=false), or
whose fail_frac is above every base run's, fails the comparison. fail_frac
is printed as absolute values, since it is 0 on correct code.

Then, for every workload and metric, the script prints each side's median
and quartiles and the change of the median as a share of the base median.
When both sets ran the same seeds (at least three), the runs are paired by
seed: the change is the median of the per-seed changes, and their spread is
the distance between its quartiles. Pair the runs by alternating base and
new, one seed at a time, so a slow phase of the host hits both sides; on a
host whose speed drifts, that is the only way to resolve a change. Without
pairing, the spread is the larger of the two sides' IQR/median.

End-to-end metrics are judged against their bound in BENCHMARK.json:
  unresolved   the spread is larger than the bound, so the two sets cannot
               tell a change of the bound's size from noise (unless every
               new run reads better than every base run);
  worse        the change goes the wrong way by more than the bound;
  within bound otherwise.
Per-layer metrics have no bound and are printed for reading only.

Exit status: 1 if answers fail or any end-to-end metric is worse; else 2 if
any is unresolved; else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 3


def load(directory):
    """{(workload, trace): {seed: result}}"""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.trace[01].json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"])][result["seed"]] = result
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    """IQR as a share of the median (0 for fewer than two values)."""
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def check_answers(key, base, new):
    """Prints the answer checks of one workload; returns True if they fail."""
    workload, trace = key
    wrong = sorted(seed for seed, r in new.items() if not r["correct"])
    base_fail = [r["fail_frac"] for r in base.values()]
    new_fail = [r["fail_frac"] for r in new.values()]
    rising = sorted(seed for seed, r in new.items()
                    if r["fail_frac"] > max(base_fail))
    failing = bool(wrong or rising)
    verdict = "FAIL" if failing else "ok"
    print(f"{workload:20} trace={trace} answers {verdict}: fail_frac base "
          f"max {max(base_fail):.4g}, new max {max(new_fail):.4g}")
    if wrong:
        print(f"  new runs with correct=false: seeds {wrong}")
    if rising:
        print(f"  new runs failing more than any base run: seeds {rising}")
    return failing


def compare_metric(name, base, new, seeds):
    """(base values, new values, change, spread) of one metric."""
    b = [base[s]["metrics"][name]["value"] for s in sorted(base)]
    n = [new[s]["metrics"][name]["value"] for s in sorted(new)]
    if len(seeds) >= MIN_PAIRS:
        pairs = [(base[s]["metrics"][name]["value"],
                  new[s]["metrics"][name]["value"]) for s in seeds]
        changes = [nv / bv - 1 for bv, nv in pairs if bv]
        if not changes:
            return b, n, None, None
        q1, change, q3 = quartiles(changes)
        return b, n, change, q3 - q1
    bm = statistics.median(b)
    if not bm:
        return b, n, None, None
    return b, n, (statistics.median(n) - bm) / bm, max(spread(b), spread(n))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    failing = worse = unresolved = 0
    for key in sorted(set(base) & set(new)):
        failing += check_answers(key, base[key], new[key])
    print()
    print(f"{'workload':20} {'metric':38} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'spread':>7}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        seeds = sorted(set(b_runs) & set(n_runs))
        paired = len(seeds) >= MIN_PAIRS
        print(f"{workload} trace={trace}: {len(b_runs)} base, {len(n_runs)} "
              f"new runs, " + (f"paired by seed ({len(seeds)} pairs)"
                               if paired else "unpaired"))
        names = set.intersection(*(set(r["metrics"]) for r in
                                   list(b_runs.values()) + list(n_runs.values())))
        for name in sorted(names):
            b, n, change, spr = compare_metric(name, b_runs, n_runs, seeds)
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            verdict = ""
            if name in bounds and not trace and change is not None:
                bound = bounds[name]["bound"]
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if spr > bound and all(sign * (x - y) < 0
                                       for x in n for y in b):
                    verdict = "better in every run"
                elif spr > bound:
                    verdict = f"unresolved (spread > bound {bound:.0%})"
                    unresolved += 1
                elif sign * change > bound:
                    verdict = f"worse (bound {bound:.0%})"
                    worse += 1
                else:
                    verdict = f"within bound {bound:.0%}"
            base_text = f"{bm:.5g} [{b1:.4g}, {b3:.4g}]"
            new_text = f"{nm:.5g} [{n1:.4g}, {n3:.4g}]"
            change_text = "n/a" if change is None else f"{change:+.1%}"
            spread_text = "" if spr is None else f"{spr:.1%}"
            print(f"{workload:20} {name:38} {base_text:>30} {new_text:>30} "
                  f"{change_text:>8} {spread_text:>7}  {verdict}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"only in one set: {missing}")
    print(f"\n{failing} failing answer checks, {worse} worse, "
          f"{unresolved} unresolved")
    sys.exit(1 if failing or worse else 2 if unresolved else 0)


if __name__ == "__main__":
    main()
