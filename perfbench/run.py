"""Benchmark of the `mahonian` package: one workload per run.

    python3 perfbench/run.py --workload {verify,queries,dist} --seed N \
        --seconds S --trace {0,1}

Runs from the repository root and imports the package from `src/`. One
process, one thread, one client in a closed loop: each operation starts
when the previous one has returned. The last line of standard output is
a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Both are also written to `perfbench/results/`. See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is measured in fresh interpreters, since every CLI invocation pays
# it; the time covers the imports and the table loads only, not interpreter
# start. SETUP_SAMPLES is odd so that the median is one measured sample.
SETUP_SAMPLES = 9
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mahonian, mahonian.cli
from mahonian import tables
tables.table1_sets("inv_c"); tables.table1_sets("tilde_inv_c")
tables.table2(); tables.table3(); tables.table4()
print(time.perf_counter() - t0)
"""

# Layers whose span time is reported as a share of each workload's wall time.
COVER = {
    "verify": ("oracle.scan_group", "oracle.code_sum_histogram", "lehmer"),
    "queries": ("counting", "qpoly", "special"),
    "dist": ("oracle.distribution",),
}


def import_package():
    """Import `mahonian` from this checkout's src/, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import mahonian
        from mahonian import cli, oracle
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mahonian from {SRC}: {exc}")
    if Path(mahonian.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: mahonian was imported from {mahonian.__file__}, not {SRC}")
    return cli, oracle


def measure_setup() -> float:
    """Median of SETUP_SAMPLES set-up times, each in a fresh interpreter.

    One unrecorded run first writes the bytecode caches, which a user's
    installation would already have.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def probe(cli, oracle) -> int:
    """One call on the smallest inputs into every traced layer, before the
    timed phase: first-call costs stay out of it, and no layer's per-layer
    figures read exactly 0 on a workload that does not use it. Returns the
    bytes the CLI printed."""
    from mahonian import lehmer, tables

    printed = 0
    for argv in (
        ["stat", "--perm", "2[1] 1", "--c", "2"],
        *(["seq", "--name", "ic", "--c", "1", "--n-max", "2", "--method", m]
          for m in spans.ENGINES),
        *(["seq", "--name", name, "--c", "2", "--n-max", "2"]
          for name in ("I", "d", "t", "r", "iinv")),
    ):
        printed += len(workloads.run_cli(cli, argv).out.encode())
    oracle.distribution(2, 1)
    oracle.verify_suite(0)
    oracle.scan_group(2, 1)
    oracle.code_sum_histogram(2, 1)
    for code in lehmer.iter_codes(2, 1):
        lehmer.perm_to_code(lehmer.code_to_colored_perm(code))
    tables.table1_sets("inv_c")
    tables.table1_sets("tilde_inv_c")
    tables.table2()
    tables.table3()
    tables.table4()
    return printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify", "queries", "dist"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, oracle = import_package()
    setup_s = measure_setup()
    rng = random.Random(args.seed)

    tracer = None
    if args.trace:
        tracer = spans.Tracer(cover=COVER[args.workload])
        spans.install(tracer)
    stdout_bytes = probe(cli, oracle)

    if args.workload == "verify":
        make_round = lambda: workloads.verify_round(cli)  # noqa: E731
    elif args.workload == "dist":
        make_round = lambda: workloads.dist_round(oracle, rng)  # noqa: E731
    else:
        stream = workloads.QueryStream(cli)
        make_round = lambda: stream.round(rng)  # noqa: E731
    # `verify` and `dist` make one round per run: a second would repeat the
    # same calls. A traced run makes one round, so that its per-layer
    # figures describe one round's work.
    one_round = args.workload != "queries" or bool(args.trace)

    attempted = failed = 0
    correct = True
    walls: list[float] = []
    latencies: list[float] = []
    cover_share = None
    began = time.perf_counter()
    query_keys: list[set] = []
    while True:
        round_start = time.perf_counter()
        wall = 0.0
        cover_before = tracer.cover_ns if tracer is not None else 0
        for label, call, check in make_round():
            if tracer is not None:
                tracer.keys = set()
            t0 = time.perf_counter()
            try:
                outcome = call()
            except Exception as exc:  # noqa: BLE001 - an exception is a failed operation
                outcome = exc
            took = time.perf_counter() - t0
            wall += took
            latencies.append(took)
            if tracer is not None:
                query_keys.append(tracer.keys)
                tracer.keys = None
            # Checked at once, outside the timed call, so that no round holds
            # all of its outputs in memory at the same time.
            attempted += 1
            if isinstance(outcome, workloads.Captured):
                stdout_bytes += len(outcome.out.encode())
            status = "failed" if isinstance(outcome, Exception) else checked(check, outcome)
            if status == "failed":
                failed += 1
            elif status != "ok":
                correct = False
            if status != "ok":
                print(f"round {len(walls) + 1}: {status}: {label[:120]}", file=sys.stderr)
        walls.append(wall)
        if tracer is not None:
            cover_share = (tracer.cover_ns - cover_before) / 1e9 / wall
        elapsed = time.perf_counter() - began
        last = time.perf_counter() - round_start
        if one_round or elapsed + last > args.seconds:
            break

    print(f"workload={args.workload} seed={args.seed} rounds={len(walls)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    print("round wall s: " + " ".join(f"{w:.3f}" for w in walls))
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = spans.layer_metrics(tracer, stdout_bytes)
        print(f"traced wall_s {walls[0]:.4f}; share of it inside "
              f"{'+'.join(COVER[args.workload])}: {cover_share:.3f}")
        if args.workload == "queries":
            print(sharing_report(query_keys))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        records = [list(s) for s in tracer.spans]
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps({"spans": records}) + "\n")
    print(json.dumps(result))
    return 0


def checked(check, outcome) -> str:
    """The check's verdict; an answer the check cannot even parse is wrong."""
    try:
        return check(outcome)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return "wrong"


def sharing_report(query_keys: list[set]) -> str:
    """Share of queries that make a keyed call (same function, same
    arguments) that another query of the round also makes."""
    owners: dict = {}
    for i, keys in enumerate(query_keys):
        for key in keys:
            owners.setdefault(key, set()).add(i)
    shared = {i for ids in owners.values() if len(ids) > 1 for i in ids}
    by_layer = {}
    for (layer, _), ids in owners.items():
        if len(ids) > 1:
            by_layer.setdefault(layer, set()).update(ids)
    total = len(query_keys)
    parts = ", ".join(f"{layer} {len(ids)}" for layer, ids in sorted(by_layer.items()))
    return f"queries sharing a sub-computation: {len(shared)}/{total} ({parts})"


if __name__ == "__main__":
    sys.exit(main())
