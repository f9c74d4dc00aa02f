"""Spans around the library's public names, recorded from outside the program.

``Tracer.install`` replaces each name in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent span, item id, work count) and
``Tracer.restore`` puts the original objects back.  The wrapped names are
the ones a layer calls in another: ``melnikov_lab.melnikov.orbit_state`` is
the melnikov layer calling the pendulum layer, so the span is the pendulum
layer's work on melnikov's behalf.  Quadrature nodes are counted through
melnikov's private node-doubling helper, the one place that sees every
node; a name that a later version drops is listed as not traced and its
counters read 0.  The cli layer runs in child processes, so its times come
from ``python -X importtime`` instead.  Spans stay in memory until the run
ends.  The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import re
import statistics
import sys
import time

import numpy as np

from checker import resonance_rel_residual

MODULUS_BUILD = "elliptic.modulus_build"
JACOBI = "elliptic.jacobi"
ORBIT = "pendulum.orbit"
RESONANCE = "melnikov.solve_resonance"
QUADRATURE = "melnikov.quadrature"
NODE_DOUBLING = "melnikov.node_doubling"
CONTOUR_KERNELS = "contour.contour_kernels"
CERTIFICATE = "certificate.build_certificate"
FIXED_POINT = "poincare.find_subharmonic"
FLOW = "poincare.flow"

# Fields of a span record.
NAME, START, END, PARENT, ITEM, COUNT, FAILED, NOTE = range(8)


def _size_of(index):
    def count(rec, args, kwargs):
        rec[COUNT] = int(np.size(args[index]))
        return args, kwargs

    return count


def _count_sampler_nodes(rec, args, kwargs):
    # _trapezoid_doubling(sample_mean, ...) calls sample_mean(n) once per level
    sample_mean = args[0]

    def counted(n):
        rec[COUNT] += n
        return sample_mean(n)

    return (counted,) + tuple(args[1:]), kwargs


def _note_resonance(rec, result):
    if result is not None:
        rec[NOTE] = (result.family_tag, result.omega, result.m, result.n,
                     result.modulus.k_prime)


def _note_nfev(rec, result):
    rec[COUNT] = int(result.nfev)


# (module, class or None, attribute, span name, pre-call hook, post-call hook)
TARGETS = (
    ("melnikov_lab.elliptic", "EllipticModulus", "from_k", MODULUS_BUILD, None, None),
    ("melnikov_lab.elliptic", "EllipticModulus", "from_k_prime", MODULUS_BUILD, None, None),
    ("melnikov_lab.pendulum", None, "jacobi_real", JACOBI, _size_of(0), None),
    ("melnikov_lab.pendulum", None, "jacobi_am", JACOBI, _size_of(0), None),
    ("melnikov_lab.pendulum", None, "jacobi_complex", JACOBI, _size_of(0), None),
    ("melnikov_lab.contour", None, "jacobi_complex", JACOBI, _size_of(0), None),
    ("melnikov_lab.melnikov", None, "orbit_state", ORBIT, _size_of(1), None),
    ("melnikov_lab.poincare", None, "orbit_state", ORBIT, _size_of(1), None),
    ("melnikov_lab.contour", None, "orbit_complex_values", ORBIT, _size_of(1), None),
    ("melnikov_lab.melnikov", None, "solve_resonance", RESONANCE, None, _note_resonance),
    ("melnikov_lab.melnikov", None, "subharmonic_quadrature", QUADRATURE, None, None),
    ("melnikov_lab.certificate", None, "subharmonic_quadrature", QUADRATURE, None, None),
    ("melnikov_lab.melnikov", None, "homoclinic_quadrature", QUADRATURE, None, None),
    ("melnikov_lab.melnikov", None, "_trapezoid_doubling", NODE_DOUBLING,
     _count_sampler_nodes, None),
    ("melnikov_lab.contour", None, "contour_kernels", CONTOUR_KERNELS, None, None),
    ("melnikov_lab.certificate", None, "build_certificate", CERTIFICATE, None, None),
    ("melnikov_lab.poincare", None, "find_subharmonic", FIXED_POINT, None, None),
    ("melnikov_lab.poincare", None, "solve_ivp", FLOW, None, _note_nfev),
)


def _lookup(module, cls, attr):
    """(owner, object bound at the target) or None for a module not imported.

    A module the workload never imported cannot be called by it, and
    importing it here would add its import to the traced run.
    """
    owner = sys.modules.get(module)
    if owner is None:
        return None
    if cls:
        owner = getattr(owner, cls)
        return owner, owner.__dict__.get(attr)
    return owner, getattr(owner, attr, None)


def snapshot():
    """{target: the object bound there now} over imported modules."""
    out = {}
    for module, cls, attr, *_ in TARGETS:
        found = _lookup(module, cls, attr)
        if found is not None:
            out[(module, cls, attr)] = found[1]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        for module, cls, attr, name, pre, post in TARGETS:
            found = _lookup(module, cls, attr)
            if found is None:
                continue
            owner, original = found
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            if cls:
                wrapped = classmethod(self._wrap(original.__func__, name, pre, post))
            else:
                wrapped = self._wrap(original, name, pre, post)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0, False, None]
            if pre is not None:
                args, kwargs = pre(rec, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(rec, result)
            return result

        return wrapper

    def write(self, path):
        """Tab-separated spans, one a line; span i is line i after the header."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\titem\tcount\tfailed\n")
            for rec in self.spans:
                fh.write(
                    f"{rec[NAME]}\t{(rec[START] - t0) * 1e6:.1f}\t{(rec[END] - t0) * 1e6:.1f}"
                    f"\t{rec[PARENT]}\t{rec[ITEM]}\t{rec[COUNT]}\t{int(rec[FAILED])}\n"
                )


def layer_metrics(spans):
    """Per-layer metrics of one traced pass over the item list (see BENCHMARK.json)."""
    n = len(spans)
    dur = [rec[END] - rec[START] for rec in spans]
    child_time = [0.0] * n
    # ancestors[i]: the span names enclosing span i (parents precede children)
    ancestors = [frozenset()] * n
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            ancestors[i] = ancestors[p] | {spans[p][NAME]}

    def pick(name):
        return [i for i in range(n) if spans[i][NAME] == name]

    def total(idx, values):
        return float(sum(values[i] for i in idx))

    self_time = [dur[i] - child_time[i] for i in range(n)]
    counts = [rec[COUNT] for rec in spans]
    quad, doubling = pick(QUADRATURE), pick(NODE_DOUBLING)
    solves, builds = pick(RESONANCE), pick(MODULUS_BUILD)
    jacobi, orbit = pick(JACOBI), pick(ORBIT)
    kernels, certs = pick(CONTOUR_KERNELS), pick(CERTIFICATE)
    fixed, flows = pick(FIXED_POINT), pick(FLOW)
    nodes = total(doubling, counts)
    residuals = [resonance_rel_residual(*spans[i][NOTE]) for i in solves if spans[i][NOTE]]
    cert_time = total(certs, dur)
    return {
        "melnikov.quadrature_nodes": nodes,
        "melnikov.nodes_per_value": nodes / len(quad) if quad else 0.0,
        "melnikov.quadrature_s": total(quad, dur),
        "melnikov.quadrature_failed": sum(spans[i][FAILED] for i in quad),
        "elliptic.jacobi_points": total(jacobi, counts),
        "elliptic.jacobi_s": total(jacobi, dur),
        "pendulum.orbit_points": total(orbit, counts),
        "pendulum.self_s": total(orbit, self_time),
        "melnikov.resonance_solves": len(solves),
        "melnikov.resonance_s": total(solves, dur),
        "melnikov.builds_per_solve": (
            sum(1 for i in builds if RESONANCE in ancestors[i]) / len(solves)
            if solves else 0.0
        ),
        "melnikov.resonance_max_rel_residual": max(residuals, default=0.0),
        "elliptic.modulus_builds": len(builds),
        "elliptic.modulus_build_s": total(builds, dur),
        "contour.kernel_calls": len(kernels),
        "contour.points": total(
            [i for i in orbit if CONTOUR_KERNELS in ancestors[i]], counts),
        "contour.kernel_s": total(kernels, dur),
        "certificate.builds": len(certs),
        "certificate.self_s": total(certs, self_time),
        "certificate.resonance_share": (
            total([i for i in solves if CERTIFICATE in ancestors[i]], dur) / cert_time
            if cert_time else 0.0
        ),
        "poincare.fixed_point_calls": len(fixed),
        "poincare.flows": len(flows),
        "poincare.rhs_evals": total(flows, counts),
        "poincare.flows_per_fixed_point": len(flows) / len(fixed) if fixed else 0.0,
        "poincare.flow_s": total(flows, dur),
        "poincare.self_s": total(fixed, self_time),
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr):
    """(total import seconds, scipy.integrate cumulative seconds) from -X importtime."""
    total_us = 0
    integrate_us = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), match.group(3), match.group(4)
        if len(indent) == 1:  # top level: one space after the bar
            total_us += cumulative
        if name == "scipy.integrate":
            integrate_us = max(integrate_us, cumulative)
    return total_us * 1e-6, integrate_us * 1e-6


def cli_metrics(records):
    """records: (exit code, wall seconds, stderr) per invocation in one traced pass."""
    if not records:
        return dict.fromkeys(("cli.invocations", "cli.nonzero_exits", "cli.import_s",
                              "cli.scipy_integrate_import_s", "cli.compute_s"), 0.0)
    imports = [import_times(err) for _, _, err in records]
    return {
        "cli.invocations": float(len(records)),
        "cli.nonzero_exits": float(sum(1 for code, _, _ in records if code != 0)),
        "cli.import_s": statistics.median(t for t, _ in imports),
        "cli.scipy_integrate_import_s": statistics.median(s for _, s in imports),
        "cli.compute_s": statistics.median(
            wall - t for (_, wall, _), (t, _) in zip(records, imports)
        ),
    }

