"""Layered benchmark for the ceei package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the package is imported from its
`src/` directory, and the run fails without printing a result when there is
none.  One process is a single closed-loop caller: the next operation starts
only when the previous one returns, and the `cli` workload runs one child
process at a time.  Every output is checked against a reference made in
set-up; a wrong answer or an exception counts as a failed op, never aborts.

--trace 0 sets up the workload SETUP_REPEATS times (a fresh import of
`ceei`, input generation and reference answers; `setup_s` is the median),
then runs whole passes over the workload's ops until --seconds have passed
and at least MIN_OPS ops are done, so that the 95th percentile has ten
samples beyond it.  Each pass covers the seed's whole sample, so the
figures do not depend on where a run happens to stop.

--trace 1 runs TRACE_OPS[workload] ops three times: untraced, traced (spans
around the public functions of every layer) and under cProfile (calls into
`fractions`); a cli run also spawns children and bare interpreters.  Counts
and ratios therefore repeat exactly for one seed.  The spans are written to
perfbench/out/.

Every reported time is scaled to a reference host speed (see hostspeed.py),
because this host's speed drifts by a third between runs; the unscaled
end-to-end values are kept in the run's metadata.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata (commit, source digest, Python version, rational backend, nproc,
seed).  Both are also written to perfbench/out/<workload>-s<seed>-t<trace>.json,
which perfbench/report.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import hostspeed
import tracing
import workloads
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MODULES = ("core", "lp", "additive", "leontief", "oracle", "reductions", "io", "cli")
SETUP_REPEATS = 5
MIN_OPS = 200
WARMUP_OPS = 3
# Ops per pass of a traced run, a few seconds each on the reference host.
TRACE_OPS = {"price-recovery": 120, "equilibrium-search": 250, "oracle-corpus": 120, "cli": 80}
PROFILE_DIVISOR = 4  # the cProfile pass runs TRACE_OPS // PROFILE_DIVISOR ops
CLI_SPAWNS = 25      # subprocess requests in a traced cli run
BARE_SPAWNS = 7      # `python -c pass` and `python -c "import ceei.cli"` each

END_TO_END = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in tracing.layer_names():
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.share": "ratio"})
    units[f"{tracing.ROOT}.share"] = "ratio"
    units.update({
        "lp.solve_lp.rows_mean": "rows", "lp.solve_lp.cols_mean": "cols",
        "lp.solve_lp.positive_ratio": "ratio", "lp.solve_lp.infeasible_ratio": "ratio",
        "oracle.enumerate_allocations.yielded": "count",
        "rational.calls": "count",
        "trace.spans": "count", "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
        "host.calibration_ms": "ms", "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.spawn_ms": "ms",
        "acceptance.c2.projected_s": "s", "acceptance.c2.headroom": "ratio", "acceptance.c3.projected_s": "s",
    })
    for name in tracing.FOUND:
        units[f"{name}.found_ratio"] = "ratio"
    for sub in workloads.CLI_SUBCOMMANDS:
        units[f"cli.main_ms.{sub}"] = "ms"
    for family in workloads.FAMILY_SIZES:
        if family != "corpus":
            units[f"acceptance.c5.{family}.projected_s"] = "s"
    return units


def import_ceei():
    """Import the package afresh, so each set-up pays the import cost."""
    for name in [n for n in sys.modules if n == "ceei" or n.startswith("ceei.")]:
        del sys.modules[name]
    c = SimpleNamespace(**{m: importlib.import_module(f"ceei.{m}") for m in MODULES})
    c.root = str(ROOT)
    c.child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return c


@dataclass
class Record:
    op: workloads.Op
    latency: float
    start: float
    ok: Optional[bool] = None  # None until checked
    out: object = None
    err: Optional[Exception] = None


def passes(op, out, err):
    try:
        return err is None and bool(op.check(out))
    except Exception:  # a check that raises is a failed op
        return False


def closed_loop(ops, call, count=None, seconds=None, min_ops=0, wrap=None, host=None, keep=False):
    """Run ops back to back: `count` of them, or whole passes over `ops`
    until `seconds` have passed and `min_ops` are done.  Each output is
    checked as soon as its op returns, outside the op's time, unless `keep`
    holds it for `settle`.  The host is timed between ops when given."""
    records = []
    start = perf_counter()
    k = 0
    while True:
        op = ops[k % len(ops)]
        fn = call(op)
        t0 = perf_counter()
        try:
            out, err = (wrap(fn) if wrap else fn()), None
        except Exception as exc:  # a failed op is counted, never fatal
            out, err = None, exc
        t1 = perf_counter()
        if keep:
            records.append(Record(op, t1 - t0, t0, out=out, err=err))
        else:
            records.append(Record(op, t1 - t0, t0, ok=passes(op, out, err), err=err))
        k += 1
        if host is not None:
            host.sample_if_due(perf_counter())
        if count is not None and k >= count:
            break
        if seconds is not None and t1 - start >= seconds and k >= min_ops and k % len(ops) == 0:
            break
    return records


def settle(records):
    """Check the kept outputs; returns the failed records."""
    for r in records:
        if r.ok is None:
            r.ok = passes(r.op, r.out, r.err)
    return [r for r in records if not r.ok]


def percentile_ms(latencies, q):
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(name, ops, seconds, host):
    """End-to-end metrics, with every wall time scaled to the reference host
    speed; the unscaled values are returned alongside."""
    records = closed_loop(ops, lambda op: op.run, seconds=seconds, min_ops=MIN_OPS, host=host)
    host.sample(hostspeed.NEIGHBOURS)
    wall = [r.latency for r in records]
    scaled = [host.scale(r.latency, r.start) for r in records]
    metrics, raw = {}, {}
    for out, latencies in ((metrics, scaled), (raw, wall)):
        out["ops_per_s"] = len(latencies) / sum(latencies)
        out["latency_p50_ms"] = percentile_ms(latencies, 50)
        out["latency_p95_ms"] = percentile_ms(latencies, 95)
    metrics["peak_rss_mb"] = peak_rss_mb(children=name == "cli")
    return records, metrics, raw


def spawn_times(c, argv, repeats, host):
    """(start, seconds) of each of `repeats` interpreters run with `argv`."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=c.child_env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append((t0, perf_counter() - t0))
        host.sample_if_due(perf_counter())
    return times


def traced_run(name, ops, c, seed, host):
    """Per-layer metrics from fixed numbers of ops: untraced, traced, under
    cProfile, and for cli also as child processes.  Times are scaled to the
    reference host speed like the end-to-end ones."""
    count = TRACE_OPS[name]
    inproc = lambda op: op.inproc or op.run
    untraced = closed_loop(ops, inproc, count=count, host=host, keep=True)
    with tracing.Tracer(c) as tracer:
        traced = closed_loop(ops, inproc, count=count, wrap=tracer.op, host=host, keep=True)
    tracer.dump(OUT / f"{name}-s{seed}-spans.json")
    profiled = []
    rational_calls = tracing.rational_calls(
        lambda: profiled.extend(closed_loop(ops, inproc, count=count // PROFILE_DIVISOR, keep=True)))
    spawned, bare, imports = [], [], []
    if name == "cli":
        spawned = closed_loop(ops, lambda op: op.run, count=CLI_SPAWNS, host=host)
        bare = spawn_times(c, ["-c", "pass"], BARE_SPAWNS, host)
        imports = spawn_times(c, ["-c", "import ceei.cli"], BARE_SPAWNS, host)
    host.sample(hostspeed.NEIGHBOURS)

    def busy(records):
        return sum(host.scale(r.latency, r.start) for r in records)

    def median_ms(pairs):
        return statistics.median(host.scale(s, t) for t, s in pairs) * 1e3

    metrics = tracer.metrics(host.scale)
    metrics["rational.calls"] = rational_calls
    metrics["trace.untraced_ops_per_s"] = count / busy(untraced)
    metrics["trace.traced_ops_per_s"] = count / busy(traced)
    metrics["trace.overhead_ratio"] = busy(traced) / busy(untraced)
    metrics["host.calibration_ms"] = host.median_ms()
    for key, seconds in workloads.acceptance(untraced, host.scale).items():
        metrics[f"acceptance.{key}.projected_s" if key in ("c2", "c3") else f"acceptance.c5.{key}.projected_s"] = seconds
    if "acceptance.c2.projected_s" in metrics:
        metrics["acceptance.c2.headroom"] = workloads.BUDGET_S["c2"] / metrics["acceptance.c2.projected_s"]
    if name == "cli":
        by_sub = {}
        for r in untraced:
            by_sub.setdefault(r.op.family, []).append((r.start, r.latency))
        for sub, pairs in by_sub.items():
            metrics[f"cli.main_ms.{sub}"] = median_ms(pairs)
        metrics["cli.interpreter_ms"] = median_ms(bare)
        metrics["cli.import_ms"] = median_ms(imports) - metrics["cli.interpreter_ms"]
        metrics["cli.spawn_ms"] = median_ms([(r.start, r.latency) for r in spawned])
    return untraced + traced + profiled + spawned, metrics


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ceei").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def metadata(c, args):
    backend = c.core._rational_backend
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "rational_backend": f"{backend.__module__}.{backend.__name__}",
        "nproc": os.cpu_count(),
    }


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = per_layer_units() if args.trace else END_TO_END
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(units):
        print(f"error: BENCHMARK.json and run.py disagree on {sorted(declared ^ set(units))}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "ceei" / "__init__.py").is_file():
        print(f"error: no ceei package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    setup = workloads.SETUPS[args.workload]
    try:
        host = HostSpeed()
        host.sample(hostspeed.NEIGHBOURS)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            c = import_ceei()
            ops = setup(c, args.seed, workdir)
            setup_times.append((perf_counter() - t0, t0))
            host.sample(hostspeed.NEIGHBOURS)
        if not Path(c.core.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"error: ceei imported from {c.core.__file__}, not from this checkout", file=sys.stderr)
            return 2
        warmup = closed_loop(ops, lambda op: op.run, count=WARMUP_OPS)
        if args.trace:
            records, metrics = traced_run(args.workload, ops, c, args.seed, host)
            raw = {}
        else:
            records, metrics, raw = timed_run(args.workload, ops, args.seconds, host)
            metrics["setup_s"] = statistics.median(host.scale(s, t) for s, t in setup_times)
            raw["setup_s"] = statistics.median(s for s, _ in setup_times)
        records += warmup
        failed = settle(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in failed[:5]:
        print(f"failed op: {r.op.family}: {r.err!r}" if r.err else f"failed op: {r.op.family}: wrong answer",
              file=sys.stderr)
    if not args.trace:
        metrics["ok_ratio"] = 1 - len(failed) / len(records)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }
    meta = metadata(c, args)
    meta["host_calibration_ms"] = host.median_ms()
    meta["unscaled"] = raw
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
