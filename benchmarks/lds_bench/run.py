"""lds_bench runner.

Usage::

    run.py [--workload W] [--seed N] [--seconds S | --repeats R]
           [--trace 0|1] [--out FILE]
    run.py compare PARENT.json CHANGE.json

Without ``--workload`` all four workloads run in turn.  Each repetition
of a workload runs in a fresh interpreter, one at a time (the sandbox has
two cores: one for the load, one for everything else).  ``--trace 0``
repeats the timed repetition for ``--seconds`` (at least twice) and
prints the end-to-end metrics; ``--trace 1`` runs one traced,
one telemetry and two timed repetitions and prints the per-layer metrics.
Every metric is printed by name with its unit, then -- as the last line
-- one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero unless the outputs are correct (see
``check_repetitions``).  ``--out FILE`` appends the run, repetitions
included, to a JSON file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

#: When this interpreter's set-up began: before ``repro`` (and numpy) are
#: imported, so a repetition's ``setup_s`` includes the import.
_STARTED = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Import this directory as the package ``lds_bench`` (its ``trace`` module
# must not shadow the standard library's) and the program from ``src/``.
if sys.path and os.path.abspath(sys.path[0]) == HERE:
    del sys.path[0]
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

from lds_bench.trace import LAYERS, coverage, layer_self_times  # noqa: E402
from lds_bench.workloads import BY_NAME, SPECS  # noqa: E402

#: A repetition that takes longer than this is killed and the run fails.
REPETITION_TIMEOUT_S = 150

#: Least share of a traced run that must fall inside named layers' spans.
TRACE_COVERAGE_FLOOR = 0.95


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one repetition in a fresh interpreter ------------------------------------


def spawn_repetition(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a child interpreter and wait for it to end."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "repetition",
         workload, str(seed), mode],
        stdout=subprocess.PIPE, timeout=REPETITION_TIMEOUT_S, check=True)
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def repetition_main(argv) -> int:
    """The child side of :func:`spawn_repetition`."""
    from lds_bench.repetition import run_repetition

    workload, seed, mode = argv
    result = run_repetition(BY_NAME[workload], int(seed), mode,
                            started=_STARTED)
    print(json.dumps(result))
    return 0


# -- correctness --------------------------------------------------------------


def check_repetitions(repetitions) -> list:
    """Why the run is incorrect (empty when it is correct).

    Every repetition must audit clean (atomicity and the four session
    guarantees), complete every operation, leave no temporary L1 storage
    behind, and agree *exactly* with every other repetition -- traced and
    telemetry ones included -- on the kernel fingerprint, every simulated
    time metric and every deterministic count.  A traced repetition must
    attribute at least 95% of its run to named layers.
    """
    problems = []
    reference = repetitions[0]["exact"]
    for index, repetition in enumerate(repetitions):
        exact = repetition["exact"]
        label = f"repetition {index} ({repetition['mode']})"
        if not exact["audit_ok"] or exact["violations"]:
            problems.append(f"{label}: audit failed "
                            f"({exact['violations']} violations)")
        if exact["incomplete"]:
            problems.append(f"{label}: {exact['incomplete']} of "
                            f"{exact['attempted']} operations incomplete")
        if exact["l1_temporary_storage"]:
            problems.append(f"{label}: L1 temporary storage not back to 0")
        differing = sorted(key for key in reference
                           if exact.get(key) != reference[key])
        if differing:
            problems.append(f"{label}: differs from repetition 0 on "
                            + ", ".join(differing))
        if "trace" in repetition:
            covered = coverage(repetition["trace"], repetition["run_s"])
            if covered < TRACE_COVERAGE_FLOOR:
                problems.append(f"{label}: trace coverage {covered:.3f} "
                                f"< {TRACE_COVERAGE_FLOOR}")
    return problems


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(repetitions) -> dict:
    """``name -> (value, unit, note)`` over the timed repetitions.

    ``run_s`` is the *fastest* repetition and ``ops_per_s`` its rate: what
    the host adds to a repetition (a neighbour on the same physical core,
    for seconds or for minutes) only ever adds time, so the minimum is the
    steadiest estimate of what the program itself costs -- on this sandbox
    its spread across runs is a third smaller than the median's.  The
    median is printed beside it.  ``setup_s`` and ``peak_rss_mb`` are
    medians; the simulated metrics are exact (identical in every
    repetition).
    """
    exact = repetitions[0]["exact"]
    count = len(repetitions)
    run_s = [repetition["run_s"] for repetition in repetitions]
    fastest = min(repetitions, key=lambda repetition: repetition["run_s"])

    def median(key):
        return statistics.median(r[key] for r in repetitions)

    return {
        "setup_s": (median("setup_s"), "s", f"median of {count}"),
        "run_s": (fastest["run_s"], "s",
                  f"fastest of {count} (median {statistics.median(run_s):.6g},"
                  f" slowest {max(run_s):.6g})"),
        "ops_per_s": (fastest["completed"] / fastest["run_s"], "ops/s",
                      f"{fastest['completed']} ops, fastest of {count}"),
        "peak_rss_mb": (median("peak_rss_mb"), "MiB", f"median of {count}"),
        "sim_read_p50": (exact["sim_read_p50"], "sim",
                         f"{exact['reads']} reads"),
        "sim_write_p50": (exact["sim_write_p50"], "sim",
                          f"{exact['writes']} writes"),
        "comm_cost_per_op": (exact["comm_cost_per_op"], "value-units/op", ""),
        "storage_per_object": (exact["storage_per_object"], "value-units",
                               ""),
    }


def per_layer_metrics(timed: dict, traced: dict, telemetry: dict) -> dict:
    """``name -> (value, unit, note)`` from one repetition of each mode."""
    trace = traced["trace"]
    layers, points = trace["layers"], trace["points"]
    self_times = layer_self_times(trace, traced["run_s"], timed["run_s"])
    exact = timed["exact"]
    completed = max(1, timed["completed"])

    def calls(*names):
        return sum(points.get(name, {}).get("calls", 0) for name in names)

    def size(*names):
        return sum(points.get(name, {}).get("size", 0) for name in names)

    def self_s(layer):
        return self_times[layer]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    vector_points = ("GF256.scale_vec", "GF256.mul_vec", "GF256.add_vec",
                     "GF256.dot")
    messages = calls("L1Server.on_message", "L2Server.on_message",
                     "Writer.on_message", "Reader.on_message")
    net_events = calls("Simulator.step")
    metrics = {
        "gf.self_s": (self_s("gf"), "s"),
        "gf.vec_calls": (calls(*vector_points), "count"),
        "gf.vec_bytes": (size(*vector_points), "bytes"),
        "gf.matmul_calls": (calls("GF256.matmul"), "count"),
        "gf.inverse_calls": (calls("GFMatrix.inverse"), "count"),
        "gf.solve_calls": (calls("GFMatrix.solve"), "count"),
        "gf.ns_per_vec_byte": (per(self_s("gf") * 1e9, size(*vector_points)),
                               "ns/byte"),
        "codes.self_s": (self_s("codes"), "s"),
        "codes.encode_calls": (calls("LayeredCode.encode_for_backend"),
                               "count"),
        "codes.encode_bytes": (size("LayeredCode.encode_for_backend"),
                               "bytes"),
        "codes.helper_calls": (calls("LayeredCode.helper_data"), "count"),
        "codes.regenerate_calls": (calls("LayeredCode.regenerate_l1_element"),
                                   "count"),
        "codes.decode_calls": (calls("LayeredCode.decode_from_l1",
                                     "LayeredCode.decode_from_backend"),
                               "count"),
        "codes.encodes_per_write": (
            per(calls("LayeredCode.encode_for_backend"), exact["writes"]),
            "ratio"),
        "codes.inverses_per_regenerate": (
            per(calls("GFMatrix.inverse"),
                calls("LayeredCode.regenerate_l1_element")), "ratio"),
        "core.self_s": (self_s("core"), "s"),
        "core.l1_msgs": (calls("L1Server.on_message"), "count"),
        "core.l2_msgs": (calls("L2Server.on_message"), "count"),
        "core.client_msgs": (calls("Writer.on_message", "Reader.on_message"),
                             "count"),
        "core.protocol_ops": (calls("OperationRecorder.invoke"), "count"),
        "core.us_per_msg": (per(self_s("core") * 1e6, messages), "us"),
        "net.self_s": (self_s("net"), "s"),
        "net.messages_sent": (calls("Network.send"), "count"),
        "net.events": (net_events, "count"),
        "net.dropped_to_crashed": (exact["net.dropped_to_crashed"], "count"),
        "net.msgs_per_op": (per(calls("Network.send"), completed), "1/op"),
        "net.us_per_event": (per(self_s("net") * 1e6, net_events), "us"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.events": (exact["sim.events"], "count"),
        "sim.sources": (exact["sim.sources"], "count"),
        "sim.switch_rate": (exact["sim.switch_rate"], "ratio"),
        "sim.us_per_event": (per(self_s("sim") * 1e6, exact["sim.events"]),
                             "us"),
        "cluster.self_s": (self_s("cluster"), "s"),
        "cluster.arrivals": (exact["cluster.arrivals"], "count"),
        "cluster.quorum_reads": (exact["cluster.quorum_reads"], "count"),
        "cluster.session_fallbacks": (exact["cluster.session_fallbacks"],
                                      "count"),
        "cluster.fallback_ratio": (per(exact["cluster.session_fallbacks"],
                                       exact["cluster.quorum_reads"]),
                                   "ratio"),
        "cluster.read_repairs": (exact["cluster.read_repairs"], "count"),
        "cluster.failovers": (calls("ObjectRouter.failover_shard"), "count"),
        "cluster.repairs_completed": (exact["cluster.repairs_completed"],
                                      "count"),
        "cluster.repairs_gave_up": (exact["cluster.repairs_gave_up"],
                                    "count"),
        "consistency.self_s": (self_s("consistency"), "s"),
        "consistency.audit_s": (timed["audit_s"], "s"),
        "consistency.ops_audited": (exact["ops_audited"], "count"),
        "consistency.violations": (exact["violations"], "count"),
        "tail.sim_read_p90": (exact["sim_read_p90"], "sim",
                              f"{exact['reads']} reads"),
        "tail.sim_read_p99": (exact["sim_read_p99"], "sim",
                              f"{exact['reads']} reads"),
        "tail.sim_write_p90": (exact["sim_write_p90"], "sim",
                               f"{exact['writes']} writes"),
        "obs.full_over_bare": (telemetry["run_s"] / timed["run_s"], "ratio"),
        "obs.trace_events": (telemetry["obs"]["trace_events"], "count"),
        "obs.samples": (telemetry["obs"]["samples"], "count"),
        "trace.overhead_ratio": (traced["run_s"] / timed["run_s"], "ratio"),
        "trace.coverage": (coverage(trace, traced["run_s"]), "ratio"),
        "trace.spans": (sum(layer["spans"] for layer in layers.values()),
                        "count"),
        "trace.missing_wrap_points": (len(trace["missing"]), "count"),
    }
    unnamed = sorted(set(layers) - set(LAYERS))
    if unnamed:
        print("lds_bench: spans outside the named layers: "
              + ", ".join(unnamed), file=sys.stderr)
    return {name: entry if len(entry) == 3 else entry + ("",)
            for name, entry in metrics.items()}


# -- one run of one workload --------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, repeats,
                 trace: bool, spawn=spawn_repetition) -> dict:
    """One run of one workload; ``spawn`` lets the smoke test run scaled
    repetitions in-process through this same code."""
    started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
    if trace:
        # Two timed repetitions, so that a burst of host noise in one of
        # them does not become the reference the other two are held to.
        repetitions = [spawn(workload, seed, mode)
                       for mode in ("timed", "traced", "telemetry", "timed")]
        timed = min(repetitions[0], repetitions[3],
                    key=lambda repetition: repetition["run_s"])
        metrics = per_layer_metrics(timed, repetitions[1], repetitions[2])
    else:
        # At least two, so that the exact-repeat check has something to
        # compare; then for --seconds (or exactly --repeats).
        repetitions = [spawn(workload, seed, "timed") for _ in range(2)]
        while (len(repetitions) < repeats if repeats else
               perf_counter() - started < seconds):  # simlint: disable=ND02 -- host timing is the measurement
            repetitions.append(spawn(workload, seed, "timed"))
        metrics = end_to_end_metrics(repetitions)
    problems = check_repetitions(repetitions)
    exact = repetitions[0]["exact"]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": not problems, "problems": problems,
        "attempted": exact["attempted"],
        "failed": (exact["attempted"] if not exact["audit_ok"]
                   else exact["incomplete"]),
        "fingerprint": exact["fingerprint"],
        "metrics": metrics,
        "repetitions": repetitions,
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"fingerprint={run['fingerprint']} "
          f"failed={run['failed']}/{run['attempted']} ==")
    for name, (value, unit, note) in run["metrics"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:32s} {shown:>14s} {unit:15s} {note}".rstrip())
    for problem in run["problems"]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in run["metrics"].items()},
    }), flush=True)


def bench_main(argv) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--repeats", type=int,
                        help="timed repetitions (at least 2), instead of "
                             "--seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else [s.name for s in SPECS]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.repeats,
                           bool(args.trace))
        print_run(run)
        runs.append(run)
    if args.out:
        recorded = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                recorded = json.load(handle)
        recorded["runs"].extend(runs)
        with open(args.out, "w") as handle:
            json.dump(recorded, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


# -- compare ------------------------------------------------------------------


def quartiles(values):
    """(first quartile, median, third quartile); the range of the values
    stands in for the quartiles below four samples."""
    if len(values) >= 4:
        low, middle, high = statistics.quantiles(values, n=4)
        return low, middle, high
    return min(values), statistics.median(values), max(values)


#: Pairs of runs a claim of a gain needs (choosing-metrics guide, section 8).
PAIRS_FOR_A_CLAIM = 10


def count_wins(parent, change, better: str) -> int:
    """Pairs (by position) in which the change reads better; ties count
    for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def classify(parent, change, better: str, bound: float) -> str:
    """Verdict for one (metric, workload) row; runs are paired by position.

    Following the choosing-metrics guide: *worse* when the change's median
    is worse than the parent's by more than ``bound``; *unresolved* where
    either side's quartile range is wider than the bound, unless every run
    of one side beats every run of the other; *better* only with at least
    ten pairs, the change winning nine tenths of them (ties count for
    neither) and the medians differing by more than the parent's own
    quartile range; *within-bound* otherwise.
    """
    pairs = min(len(parent), len(change))
    wins = count_wins(parent, change, better)
    sign = -1.0 if better == "higher" else 1.0
    parent = [sign * value for value in parent]
    change = [sign * value for value in change]
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    scale = abs(p_mid) or 1.0
    worse = (c_mid - p_mid) / scale > bound
    disjoint = max(change) < min(parent) or min(change) > max(parent)
    if not disjoint and max(p_high - p_low, c_high - c_low) / scale > bound:
        return "unresolved"
    if worse:
        return "worse"
    if pairs >= PAIRS_FOR_A_CLAIM and wins >= 0.9 * pairs \
            and p_mid - c_mid > p_high - p_low:
        return "better"
    return "within-bound"


def compare_main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    contract = load_contract()
    sides = []
    for path in argv:
        with open(path) as handle:
            samples = {}
            for run in json.load(handle)["runs"]:
                if run["trace"]:
                    continue
                for name, (value, _unit, _note) in run["metrics"].items():
                    samples.setdefault((run["workload"], name),
                                       []).append(value)
            sides.append(samples)
    parent, change = sides
    print(f"{'workload':16s} {'metric':20s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'wins':>7s}  verdict")
    worse = 0
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in parent or key not in change:
                print(f"{key[0]:16s} {key[1]:20s} missing on one side")
                continue
            verdict = classify(parent[key], change[key], metric["better"],
                               metric["bound"])
            worse += verdict == "worse"
            p_mid = statistics.median(parent[key])
            c_mid = statistics.median(change[key])
            wins = count_wins(parent[key], change[key], metric["better"])
            pairs = min(len(parent[key]), len(change[key]))
            print(f"{key[0]:16s} {key[1]:20s} {p_mid:12.6g} {c_mid:12.6g} "
                  f"{(c_mid - p_mid) / (abs(p_mid) or 1.0):+8.2%} "
                  f"{wins:3d}/{pairs:<3d}  {verdict}")
    return 1 if worse else 0


def main(argv) -> int:
    if argv and argv[0] == "repetition":
        return repetition_main(argv[1:])
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    try:
        return bench_main(argv)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        # The repetition's own traceback is already on stderr.
        print(f"lds_bench: no result: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
