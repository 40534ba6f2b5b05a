#!/usr/bin/env python3
"""Calibration and self-comparison for bench_e2e, run from the repo root.

  python3 bench_e2e/calibrate.py collect SET.json [--runs R] [--seed-base S]
      Run every workload R times (default 10, seeds S+1..S+R) with the
      command in BENCHMARK.json and save the values of the issue's 15
      end-to-end metrics, read from the report's metric lines. Leave the
      machine alone meanwhile.

  python3 bench_e2e/calibrate.py calibrate SET1.json SET2.json SET3.json SET4.json ...
      From at least four collected sets (three consecutive pairs) decide
      which of the 15 metrics the pipeline can gate, derive their bounds,
      and rewrite the `end_to_end` and `per_layer` lists of BENCHMARK.json.
      The benchmark reads the lists from that file when it is built, so
      nothing else has to change.

  python3 bench_e2e/calibrate.py compare A.json B.json
      Hold two sets to the bounds in BENCHMARK.json and list every gated
      metric outside them. Exit code 1 if any is.

The rule. For a metric on a workload, `spread` is the largest quartile
spread (Q3 - Q1) / median of any set and `drift` the largest
|median(A) - median(B)| / median(A) over consecutive sets; a metric's are
the largest any workload shows, because BENCHMARK.json holds one bound per
metric. A metric needs the largest of a floor, 3 x drift (a bound has to sit
well outside what two sets of the same code differ by) and 3 x spread (a
spread has to stay under a third of its bound). The floor is 0.1 % for the
byte metrics, whose spread is the seeds' different data, and the need is
rounded up to a hundredth of a percent; for every other metric the floor is
5 % and the need a whole percent. A timing that needs more than 10 %
is not an end-to-end metric: it goes to `per_layer`, where it is still
measured and reported, without a bound. setup_s has to stay (the pipeline
requires it) and the pipeline does not look at its spread, so it needs
3 x drift, and gets at least the largest other bound; nothing exceeds the
pipeline's cap of 25 %.

`compare` applies the same rule to two sets: B's median may not be worse
than A's by more than the bound, and no spread (setup_s's aside) may reach
a third of the bound. The pipeline itself only rejects a spread beyond the
whole bound.
"""

import json
import math
import re
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"
# The issue's end-to-end metrics, in its order.
ISSUE_METRICS = [
    "setup_s", "import_cells_per_s", "relayout_s", "recalc_s", "query_p50_us",
    "reopen_s", "fetch_p50_us", "fetch_p90_us", "edit_p50_us", "edit_p90_us",
    "shift_p50_us", "ops_per_s", "disk_bytes_per_cell",
    "resident_bytes_per_cell", "rss_peak_mb",
]
BYTE_METRICS = {"disk_bytes_per_cell", "resident_bytes_per_cell"}
BYTE_FLOOR = 0.001
TIMING_UNITS = {"s", "us", "1/s"}
FLOOR = 0.05
TIMING_CAP = 0.10
PIPELINE_CAP = 0.25
MIN_SETS = 4
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9][0-9.eE+-]*)\s+\S+\s+n=\d+\s*$")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def issue_entries(bench):
    """The 15 metrics' BENCHMARK.json entries, whichever list they are on."""
    by_name = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return [by_name[name] for name in ISSUE_METRICS]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m and m.group(1) in ISSUE_METRICS:
            values[m.group(1)] = float(m.group(2))
    missing = [name for name in ISSUE_METRICS if name not in values]
    if missing:
        raise SystemExit(f"{workload} seed {seed}: report lacks {missing}")
    return values


def collect(bench, runs, seed_base):
    result = {}
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for i in range(1, runs + 1):
            for metric, v in run_once(bench, name, seed_base + i).items():
                values.setdefault(metric, []).append(v)
            print(f"  {name} run {i}/{runs}", file=sys.stderr)
        result[name] = values
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worsening(metric, a, b):
    """How much worse median(b) is than median(a), as a share of median(a)."""
    ma, mb = statistics.median(a), statistics.median(b)
    delta = (mb - ma) / ma
    return delta if metric["better"] == "lower" else -delta


def round_up(x, step):
    return math.ceil(x / step - 1e-9) * step


def seen(bench, sets, name):
    """Per workload: (worst spread of any set, worst drift between
    consecutive sets)."""
    out = {}
    for w in bench["workloads"]:
        series = [s[w["name"]][name] for s in sets]
        medians = [statistics.median(v) for v in series]
        drift = max(abs(b - a) / a for a, b in zip(medians, medians[1:]))
        out[w["name"]] = (max(spread(v) for v in series), drift)
    return out


def calibrate(bench, sets):
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'spread % / drift %':<26}" + "".join(f"{n:>16}" for n in workloads) + "   needs")
    needs = {}
    for entry in issue_entries(bench):
        name = entry["name"]
        per_workload = seen(bench, sets, name)
        worst_spread = max(s for s, _ in per_workload.values())
        worst_drift = max(d for _, d in per_workload.values())
        if name in BYTE_METRICS:
            need = round_up(max(BYTE_FLOOR, 3 * worst_drift, 3 * worst_spread), 0.0001)
        elif name == "setup_s":
            need = round_up(max(FLOOR, 3 * worst_drift), 0.01)
        else:
            need = round_up(max(FLOOR, 3 * worst_drift, 3 * worst_spread), 0.01)
        needs[name] = round(need, 6)
        digits = 3 if name in BYTE_METRICS else 1
        cells = "".join(f"{100 * per_workload[n][0]:>9.{digits}f} /{100 * per_workload[n][1]:>5.{digits}f}"
                        for n in workloads)
        print(f"{name:<26}{cells}   {100 * need:g} %")

    gated, demoted = [], []
    for entry in issue_entries(bench):
        name, need = entry["name"], needs[entry["name"]]
        cap = TIMING_CAP if entry["unit"] in TIMING_UNITS else PIPELINE_CAP
        if name == "setup_s" or need <= cap + 1e-9:
            gated.append(entry)
        else:
            demoted.append(entry)
    others = [needs[e["name"]] for e in gated if e["name"] != "setup_s"]
    needs["setup_s"] = min(PIPELINE_CAP, max([needs["setup_s"]] + others))

    layers = [m for m in bench["per_layer"] if m["name"] not in ISSUE_METRICS]
    bench["end_to_end"] = [
        {"name": e["name"], "unit": e["unit"], "better": e["better"], "bound": needs[e["name"]]}
        for e in gated
    ]
    bench["per_layer"] = [
        {"name": e["name"], "unit": e["unit"], "better": e["better"]} for e in demoted
    ] + layers
    with open(BENCHMARK, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    print(f"\nend_to_end: " + ", ".join(f"{e['name']} {100 * e['bound']:g} %"
                                        for e in bench["end_to_end"]))
    print("per_layer, no bound: " + (", ".join(e["name"] for e in demoted) or "none of the 15"))
    print(f"written to {BENCHMARK}; rebuild the benchmark before the next run")


def compare(bench, a, b):
    bad = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in bench["workloads"]:
            va, vb = a[w["name"]][name], b[w["name"]][name]
            worse = worsening(metric, va, vb)
            notes = []
            if worse > bound:
                notes.append(f"median worse by {100 * worse:.2f} %")
            if name != "setup_s":
                for label, v in (("A", va), ("B", vb)):
                    if len(v) >= 2 and spread(v) >= bound / 3:
                        notes.append(f"spread of {label} {100 * spread(v):.2f} %, "
                                     "not under a third of the bound")
            line = (f"{w['name']:<13} {name:<24} A {statistics.median(va):>14.4f} "
                    f"B {statistics.median(vb):>14.4f}  {100 * worse:+6.2f} %  bound {100 * bound:g} %")
            if notes:
                bad.append(line + "  <-- " + ", ".join(notes))
            print(line)
    print()
    if bad:
        print(f"{len(bad)} metric(s) outside their bounds:")
        print("\n".join(bad))
    else:
        print("every gated metric within its bound")
    return not bad


def load_sets(paths):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    return sets


def flag(args, name, default):
    return int(args[args.index(name) + 1]) if name in args else default


def main(argv):
    if len(argv) < 3:
        raise SystemExit(__doc__)
    bench = load_benchmark()
    mode, args = argv[1], argv[2:]
    if mode == "collect":
        result = collect(bench, flag(args, "--runs", 10), flag(args, "--seed-base", 0))
        with open(args[0], "w") as f:
            json.dump(result, f, indent=1)
    elif mode == "calibrate":
        if len(args) < MIN_SETS:
            raise SystemExit(f"calibrate needs at least {MIN_SETS} sets")
        calibrate(bench, load_sets(args))
    elif mode == "compare" and len(args) == 2:
        a, b = load_sets(args)
        raise SystemExit(0 if compare(bench, a, b) else 1)
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
