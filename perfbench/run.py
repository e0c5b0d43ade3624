#!/usr/bin/env python3
"""Opera simulator benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver from this checkout's sources (into $CARGO_TARGET_DIR,
default .bench_build), runs the workload in its own process, checks the
simulated output, and prints a table of metrics followed, as the last line of
stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans under the build directory). A run
covers the workload's fixed instance list (expected.json) in whole passes:
as many as fit in --seconds at the pass time recorded there, at least one. Exit code 0
means every output check passed; a failed check prints the result with
"correct": false and exits 1. A checkout without the simulator's sources
exits 2 without printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _BENCH = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])
# name -> unit, in report order.
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
SPAN_NAMES = tuple(n[len("self_s."):] for n in PER_LAYER if n.startswith("self_s."))

# Printed after the gated end-to-end metrics but not gated: failed_frac is 0
# on every correct run (it is checked, not measured); flows_per_s is the
# reciprocal of run_s over a fixed instance list, so it adds no gate of its
# own; and the makespan of a websearch instance is set by whichever large
# flow arrives last, so it and sim_ms_per_s swing 15-25% from seed to seed.
# The traced run reports those last two among the per-layer metrics.
UNGATED = {"flows_per_s": "1/s", "failed_frac": "ratio", "sim_ms_per_s": "ms/s",
           "sim_makespan_ms": "ms"}


class BenchError(Exception):
    """A check failed or the benchmark could not run."""


# ---------------------------------------------------------------------------
# Arithmetic (unit-tested in test_perfbench.py)
# ---------------------------------------------------------------------------


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span id: its duration minus the part its children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - covered(clipped)
    return out


def self_time_by_name(spans):
    """Median over iterations of the summed self time of each span name."""
    st = self_times(spans)
    per_iter = {}
    for s in spans:
        row = per_iter.setdefault(s["iteration"], {})
        row[s["name"]] = row.get(s["name"], 0.0) + st[s["id"]]
    rows = list(per_iter.values()) or [{}]
    return {name: statistics.median(row.get(name, 0.0) for row in rows)
            for name in SPAN_NAMES}


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the driver; a failed step's log goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no {needed} in {ROOT}: the simulator's sources are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return os.path.join(out_dir, "perfbench_driver")


def run_driver(binary, args, instances, passes, spans_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--instances", str(instances),
           "--passes", str(passes)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", spans_path]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"driver exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def load_expected(workload, smoke):
    """The workload's instance count, pass time, default seed and digests."""
    with open(EXPECTED, encoding="utf-8") as f:
        table = json.load(f)
    entry = table.get("smoke" if smoke else "full", {}).get(workload)
    if entry is None:
        raise BenchError(f"{EXPECTED} records nothing for {workload}")
    return entry


def check(raw, expected, seed):
    """Returns (attempted, failed, problems) over every iteration run."""
    problems = []
    attempted = failed = 0
    for kind in ("untraced", "traced"):
        for i, it in enumerate(raw[kind]):
            v = it["values"]
            attempted += int(v["flows"])
            failed += int(v["flows"] - v["completed"])
            problems += [f"{kind} iteration {i}: {e}" for e in it["errors"]]
    # The traced twin of each instance must reproduce the untraced digest:
    # the hooks observe the run without perturbing it.
    for i, it in enumerate(raw["traced"]):
        if it["digest"] != raw["untraced"][i]["digest"]:
            problems.append(f"instance {i}: traced digest {it['digest']} != "
                            f"untraced {raw['untraced'][i]['digest']}")
    # The first pass covers the instances in order; later passes repeat them.
    if seed == expected["seed"]:
        for i, want in enumerate(expected["digests"][:len(raw["untraced"])]):
            got = raw["untraced"][i]["digest"]
            if got != want:
                problems.append(f"instance {i}: digest {got} != recorded {want} "
                                f"for seed {seed}")
    if failed:
        problems.append(f"{failed} of {attempted} flows did not complete by the horizon")
    return attempted, failed, problems


def record(workload, smoke, seed, raw):
    with open(EXPECTED, encoding="utf-8") as f:
        table = json.load(f)
    entry = table["smoke" if smoke else "full"][workload]
    entry["seed"] = seed
    entry["digests"] = [it["digest"] for it in raw["untraced"][:entry["instances"]]]
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def passes_for(seconds, pass_s):
    """Whole passes that fit in `seconds` at the recorded pass time, at least one.

    Set by the recorded time, not the measured one, so a faster program runs
    the same samples as a slower one.
    """
    return max(1, int(seconds // pass_s))


def median_of(iterations, key):
    return statistics.median(it["values"][key] for it in iterations)


def best_per_instance(iterations, instances, key):
    """Per instance, the least value over its passes (iterations run pass by pass).

    The host's noise only ever adds time, so the fastest pass is the reading
    least disturbed by it.
    """
    return [min(it["values"][key] for it in iterations[i::instances])
            for i in range(instances)]


def end_to_end(raw, instances):
    its = raw["untraced"]
    first = its[:instances]
    flows = sum(it["values"]["flows"] for it in its)
    run_s = best_per_instance(its, instances, "run_s")
    return {
        # Every iteration builds the same network, so all are samples of one build.
        "setup_s": min(it["values"]["setup_s"] for it in its),
        "run_s": statistics.median(run_s),
        "total_s": statistics.median(best_per_instance(its, instances, "total_s")),
        # Ratio of sums: instances offer equal bytes but unequal flow counts.
        "flows_per_s": ratio(sum(it["values"]["completed"] for it in first), sum(run_s)),
        "sim_ms_per_s": statistics.median(ratio(it["values"]["makespan_ms"], r)
                                          for it, r in zip(first, run_s)),
        # Over the first iteration only: later ones start on a heap the
        # earlier ones grew, so their peaks depend on how many ran.
        "peak_rss_mb": its[0]["values"]["peak_rss_mb"],
        "failed_frac": ratio(sum(it["values"]["flows"] - it["values"]["completed"]
                                 for it in its), flows),
        "sim_fct_p50_us": raw["pooled_fct_p50_us"],
        "sim_fct_p99_us": raw["pooled_fct_p99_us"],
        "sim_makespan_ms": median_of(first, "makespan_ms"),
    }


def slice_hit_ratio(v):
    """Slice-table lookups served without a demand build (1 with no misses)."""
    hits, misses = v.get("slice_hits", 0.0), v.get("slice_demand_builds", 0.0)
    return hits / (hits + misses) if misses else 1.0


def per_layer(raw, spans):
    its = raw["traced"]
    med = lambda f: statistics.median(f(it["values"]) for it in its)  # noqa: E731
    get = lambda key: med(lambda v: v.get(key, 0.0))  # noqa: E731
    out = {
        "sim.events": get("events"),
        "sim.events_per_s": med(lambda v: ratio(v["events"], v["loop_s"])),
        "sim.tick_ms_p50": raw["tick_ms_p50"],
        "sim.tick_ms_p90": raw["tick_ms_p90"],
        "sim.pending_max": get("pending_max"),
        "topo.build_s": get("topo_build_s"),
        "topo.slice_tables.hits": get("slice_hits"),
        "topo.slice_tables.hit_ratio": med(slice_hit_ratio),
        "topo.slice_tables.demand_builds": get("slice_demand_builds"),
        "topo.slice_tables.prefetch_builds": get("slice_prefetch_builds"),
        "topo.slice_tables.evictions": get("slice_evictions"),
        "topo.slice_tables.peak_mb": get("slice_peak_bytes") / 1e6,
        "core.build_s": med(lambda v: v["setup_s"] - v["topo_build_s"]),
        "core.submit_s": get("submit_s"),
        "core.submit_us_per_flow": med(lambda v: 1e6 * ratio(v["submit_s"], v["flows"])),
        "net.trims": get("trims"),
        "net.drops": get("drops"),
        "net.forward_drops": get("forward_drops"),
        "transport.completed": get("completed"),
        "transport.delivered_gb": get("delivered_bytes") / 1e9,
        "transport.fct_query_s": get("fct_query_s"),
        "fluid.groups_max": get("groups_max"),
        "fluid.direct_gb": get("fluid_direct_bytes") / 1e9,
        "fluid.vlb_gb": get("fluid_vlb_bytes") / 1e9,
        # Useful share of circuit bytes under VLB's 2x tax.
        "fluid.circuit_efficiency": med(lambda v: ratio(
            v.get("fluid_direct_bytes", 0.0) + v.get("fluid_vlb_bytes", 0.0),
            v.get("fluid_direct_bytes", 0.0) + 2 * v.get("fluid_vlb_bytes", 0.0))),
        "workload.gen_s": get("gen_s"),
        "workload.flows": get("flows"),
        "sim_ms_per_s": med(lambda v: ratio(v["makespan_ms"], v["run_s"])),
        "sim_makespan_ms": get("makespan_ms"),
        "trace.spans": float(len(spans)),
        # The traced iteration's standalone topology build is extra work,
        # not tracing cost, so it is left out of the comparison.
        "trace.overhead_pct": 100.0 * (ratio(
            med(lambda v: v["total_s"] - v["topo_build_s"]),
            median_of(raw["untraced"], "total_s")) - 1.0),
    }
    for name in PER_LAYER:
        if name.startswith("transport.fct_p"):  # per size bucket
            out[name] = get(name[len("transport."):])
    for name, value in self_time_by_name(spans).items():
        out[f"self_s.{name}"] = value
    return out


def report(raw, metrics, units, attempted, failed, problems, trace):
    """Human-readable lines (stdout) before the final JSON line."""
    title = "per-layer (traced run)" if trace else "end-to-end"
    print(f"# {title}: {attempted} flows attempted, {failed} failed, "
          f"{len(raw['untraced'])} untraced and {len(raw['traced'])} traced iteration(s)")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:16.6g} {unit}")
    # sim_makespan_ms reads the last completion record; RunStatus::ended_at
    # can read the horizon instead (README.md, "Simulated span quirk").
    print(f"# RunStatus::ended_at {median_of(raw['untraced'], 'ended_at_ms'):.3f} ms "
          f"(median), last completion {median_of(raw['untraced'], 'makespan_ms'):.3f} ms")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


def result_json(metrics, units, attempted, failed, problems):
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken fabrics, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="record this run's digests for --seed in expected.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.record and args.trace:
        parser.error("--record takes --trace 0")

    try:
        expected = load_expected(args.workload, args.smoke)
        instances = expected["instances"]
        # The traced run pairs every instance with an untraced twin, once.
        passes = 1 if args.trace else passes_for(args.seconds, expected["pass_s"])
        if args.record:
            expected = {"seed": None, "digests": []}
        out_dir = build_dir()
        binary = build(out_dir)
        spans_path = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.json")
        if args.trace:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        raw = run_driver(binary, args, instances, passes, spans_path)
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    attempted, failed, problems = check(raw, expected, args.seed)
    if args.record and not problems:
        record(args.workload, args.smoke, args.seed, raw)
    if args.trace:
        with open(spans_path, encoding="utf-8") as f:
            spans = json.load(f)
        metrics, units = per_layer(raw, spans), PER_LAYER
    else:
        metrics, units = end_to_end(raw, instances), END_TO_END
    report(raw, metrics, units if args.trace else {**units, **UNGATED},
           attempted, failed, problems, args.trace)
    print(result_json(metrics, units, attempted, failed, problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
