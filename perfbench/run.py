#!/usr/bin/env python3
"""melnikov-lab benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 10 --trace 0

Workloads: oracle_sweep, certify_grid, stroboscopic, cli_cold (see
BENCHMARK.json and workloads.py).  The run sets up (imports the library
from ``src/`` of this checkout and generates the seeded items), times that
set-up in fresh interpreters, then makes whole passes over fresh item
lists until ``--seconds`` have gone by, checking every answer against
checker.py.  Timings are scaled to a reference host speed (hostspeed.py);
the unscaled ones are printed beside them.  The last line of stdout is one
JSON object: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
half the time runs untraced and one traced pass over the first pass's
items follows, and the line holds that pass's per-layer metrics and the
tracing overhead.  Results with provenance, and the trace spans, go to
``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import checker  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from hostspeed import SpeedLog  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
LEDGER = BENCH_DIR / "known_failures.json"
# setup_s is the median of this many fresh-interpreter set-ups (0.5-1 s each).
SETUP_PROBES = 5
# The tail is read at the highest percentile with ten samples beyond it in
# one pass, over all the passes of a run, so a run of P passes has at least
# 10 * P samples beyond it and the percentile does not depend on P.
TAIL_SAMPLES_BEYOND = 10


class ProvenanceError(RuntimeError):
    """The library that would be measured is not this checkout's src/."""


def import_library(modules):
    """Import melnikov_lab from this checkout's src/ or fail loudly."""
    sys.path.insert(0, str(SRC))
    try:
        import melnikov_lab
    except ImportError as exc:
        raise ProvenanceError(f"cannot import melnikov_lab from {SRC}: {exc}") from exc
    where = Path(melnikov_lab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProvenanceError(f"melnikov_lab resolves to {where}, outside {SRC}")
    for name in modules:
        importlib.import_module(name)


def set_up(workload_name, seed):
    """Everything before the first item: imports and input generation."""
    workload = workloads.WORKLOADS[workload_name]
    import_library(workload.library_modules)
    items = workload.generate(seed)
    if len(items) <= TAIL_SAMPLES_BEYOND:
        raise ValueError(f"{workload_name}: a pass needs more than 10 items")
    return workload, items


def probe_setup_s(workload_name, seed, speed):
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    Returns (scaled, raw); see hostspeed for the scaling.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    speed.mark()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    speed.mark()
    return elapsed * speed.scale(start, start + elapsed), elapsed


@dataclass
class Context:
    """State an item may need besides its inputs."""

    cli_env: dict
    trace_imports: bool = False
    child_rss_kb: int = 0
    speed: SpeedLog = field(default_factory=SpeedLog)


@dataclass
class Pass:
    """One pass over one item list; times scaled to reference host speed."""

    items: list
    outputs: list
    misses: list  # None or the reason the item missed, in item order
    spans: list  # (start, end) perf_counter of each item
    latencies: list
    wall: float
    raw_wall: float

    @property
    def ok(self):
        return self.misses.count(None)

    @property
    def raw_latencies(self):
        return [t1 - t0 for t0, t1 in self.spans]


def run_pass(workload, items, check_pass, ctx, tracer=None):
    speed = ctx.speed
    speed.mark_if_due()
    spent_before = speed.spent
    spans, outputs, errors = [], [], []
    start = time.perf_counter()
    for item in items:
        speed.mark_if_due()
        if tracer is not None:
            tracer.item = item["id"]
        t0 = time.perf_counter()
        try:
            out, err = workload.answer(item, ctx), None
        except Exception as exc:  # a failed item is counted, not raised
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        outputs.append(out)
        errors.append(err)
    checked = check_pass(items, outputs)
    end = time.perf_counter()
    raw_wall = end - start - (speed.spent - spent_before)
    speed.mark()
    misses = [err or miss for err, miss in zip(errors, checked)]
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    between = raw_wall - sum(t1 - t0 for t0, t1 in spans)  # checking, loop overhead
    wall = sum(scaled) + between * speed.scale(start, end)
    return Pass(items, outputs, misses, spans, scaled, wall, raw_wall)


def measure(workload, seed, first_items, check_pass, seconds, ctx):
    """Whole passes, fresh seeded inputs each, until ``seconds`` have gone by."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        items = first_items if not passes else workload.generate(seed, len(passes))
        passes.append(run_pass(workload, items, check_pass, ctx))
    return passes


def tail_quantile(pass_size):
    return math.floor(100.0 * (pass_size - TAIL_SAMPLES_BEYOND) / pass_size) / 100.0


def harrell_davis(values, q):
    """The q-quantile as the Harrell-Davis weighted mean of the order statistics.

    The weights are a beta density centred on rank q (n + 1), so the estimate
    rests on every sample near that rank, not on the one sample at it; on
    repeated runs of the same oracle_sweep items its spread was a third of
    the nearest-rank value's.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def peak_rss_mb(workload_name, ctx):
    if workload_name == "cli_cold":
        return ctx.child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s, rss_mb, raw=False):
    """Every metric pools all the passes of the run.

    A pass of identical work still ran 10-25% slower in some stretches of
    a run than in others after scaling, so a median over three or four
    passes moved with the stretch each run happened to land in: on five
    seeds of oracle_sweep, items_per_s spread 0.071 of its median pooled
    and 0.097 as a median of passes.
    """
    q = tail_quantile(len(passes[0].items))
    lat = [t for p in passes for t in (p.raw_latencies if raw else p.latencies)]
    return {
        "setup_s": setup_s,
        "items_per_s": sum(p.ok for p in passes) / sum(
            p.raw_wall if raw else p.wall for p in passes),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * harrell_davis(lat, q),
        "pass_frac": sum(p.ok for p in passes) / sum(len(p.items) for p in passes),
        "peak_rss_mb": rss_mb,
    }


def declared_metrics():
    """{"end_to_end" | "per_layer": {name: unit}} as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def output_metrics(workload_name, one_pass):
    """Layer metrics read from the answers rather than from spans."""
    quad_err = contour_err = 0.0
    converged = attempts = 0
    for item, out in zip(one_pass.items, one_pass.outputs):
        if out is None:
            continue
        if workload_name == "oracle_sweep":
            q, c = checker.oracle_errors(item, out)
            quad_err, contour_err = max(quad_err, q), max(contour_err, c)
        if workload_name == "stroboscopic" and item["stratum"].startswith("positive"):
            attempts += 1
            converged += bool(out["converged"] and out["residual"] <= checker.NEWTON_TOL)
    return {
        "melnikov.max_abs_err": quad_err,
        "contour.max_abs_err": contour_err,
        "poincare.converged_frac": converged / attempts if attempts else 0.0,
    }


def traced_run(workload_name, workload, items, check_pass, ctx, base_e2e):
    """One traced pass over the first pass's items: per-layer metrics and overhead."""
    tracer = layertrace.Tracer()
    t0 = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - t0
    ctx.trace_imports = True
    try:
        traced = run_pass(workload, items, check_pass, ctx, tracer)
    finally:
        tracer.restore()
    traced_e2e = end_to_end([traced], base_e2e["setup_s"] + install_s,
                            peak_rss_mb(workload_name, ctx))
    metrics = layertrace.layer_metrics(tracer.spans)
    metrics.update(output_metrics(workload_name, traced))
    metrics.update(layertrace.cli_metrics(
        [(out["code"], t, out["stderr"])
         for out, t in zip(traced.outputs, traced.raw_latencies)
         if out is not None and "code" in out]
    ))
    for name, value in traced_e2e.items():
        metrics[f"overhead.{name}"] = value - base_e2e[name]
    return tracer, traced, metrics


def provenance(workload_name, seed, seconds, trace_on):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "melnikov_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace_on,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "melnikov_lab": str(Path(sys.modules["melnikov_lab"].__file__).resolve()),
    }


def _git_commit():
    """HEAD of this checkout, or None when it is not a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def known_failure_strata(workload_name):
    with open(LEDGER) as fh:
        ledger = json.load(fh)
    return {e["stratum"] for e in ledger["entries"] if e.get("workload") == workload_name}


def stratum_summary(passes):
    """{stratum: [passed, attempted, first miss reason]} over the run."""
    summary = {}
    for item, miss in ((i, m) for p in passes for i, m in zip(p.items, p.misses)):
        rec = summary.setdefault(item["stratum"], [0, 0, None])
        rec[1] += 1
        if miss is None:
            rec[0] += 1
        elif rec[2] is None:
            rec[2] = miss
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle_sweep", "certify_grid", "stroboscopic", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        workload, items = set_up(args.workload, args.seed)
    except ProvenanceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - T_START

    ctx = Context(cli_env=workloads.cli_env(SRC))
    setup = [probe_setup_s(args.workload, args.seed, ctx.speed) for _ in range(SETUP_PROBES)]
    check_pass = checker.PASS_CHECKS[args.workload]
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    passes = measure(workload, args.seed, items, check_pass, seconds, ctx)
    rss = peak_rss_mb(args.workload, ctx)
    e2e = end_to_end(passes, statistics.median(s for s, _ in setup), rss)
    raw_e2e = end_to_end(passes, statistics.median(r for _, r in setup), rss, raw=True)
    metrics, tracer = e2e, None
    if args.trace:
        tracer, traced, metrics = traced_run(args.workload, workload, items, check_pass,
                                             ctx, e2e)
        passes.append(traced)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv")
    result = report(args, passes, e2e, metrics, {
        "setup_samples_s": setup,
        "own_setup_s": own_setup_s,
        "raw": raw_e2e,
        "host_marks": list(zip(ctx.speed.times, ctx.speed.kernel)),
        "item_spans": [p.spans for p in passes],
        "not_traced": tracer.missing if tracer else [],
    }, OUT_DIR / f"{stem}.json")
    print(json.dumps(result))
    return 0


def report(args, passes, e2e, metrics, extra, path):
    """Write the full record, print the readable summary, return the result line."""
    misses = [m for p in passes for m in p.misses]
    failed, attempted = len(misses) - misses.count(None), len(misses)
    strata = stratum_summary(passes)
    ledgered = known_failure_strata(args.workload)
    unexpected = {s: rec for s, rec in strata.items() if rec[0] < rec[1] and s not in ledgered}
    q = tail_quantile(len(passes[0].items))
    untraced = passes[:-1] if args.trace else passes
    samples = sum(len(p.items) for p in untraced)
    beyond = samples - math.ceil(q * samples)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    record = dict(
        provenance=prov, passes=len(untraced), items_per_pass=len(passes[0].items),
        tail_quantile=q, tail_samples=samples, tail_samples_beyond=beyond,
        failed_frac=failed / attempted, strata=strata, unexpected_failures=unexpected,
        untraced=e2e, metrics=metrics, **extra,
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=str)

    declared = declared_metrics()
    print(f"provenance {json.dumps(prov)}")
    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {declared['end_to_end'][name]}"
              f"  (unscaled {extra['raw'][name]:.6g})")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items)")
    print(f"{args.workload} item_tail_ms is the p{100 * q:.0f} latency of {samples} items "
          f"({len(untraced)} passes of {len(passes[0].items)}), {beyond} samples beyond it")
    for stratum, (ok, total, reason) in strata.items():
        note = "" if ok == total else f"  first miss: {reason}"
        print(f"  {stratum}: {ok}/{total} within tolerance{note}")
    if extra["not_traced"]:
        print(f"  not traced (name absent): {', '.join(extra['not_traced'])}")
    for name, rec in unexpected.items():
        print(f"perfbench: unexpected failures in {name}: {rec[2]}", file=sys.stderr)

    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
                           "BENCHMARK.json")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
