"""Same seed, same items and work; another seed, the same kind of work."""

from collections import Counter

import pytest

import checker
import layertrace
import run
import workloads

WORK_COUNTS = ("melnikov.quadrature_nodes", "elliptic.modulus_builds", "poincare.rhs_evals")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(7) == generate(7)
    assert generate(7, 3) == generate(7, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_same_strata(name):
    generate = workloads.WORKLOADS[name].generate
    lists = [generate(1), generate(2), generate(1, 1)]
    counts = [Counter(i["stratum"] for i in items) for items in lists]
    assert counts[0] == counts[1] == counts[2]
    assert lists[0] != lists[1] and lists[0] != lists[2]


def _one_per_stratum(items):
    seen = {}
    for item in items:
        seen.setdefault(item["stratum"], item)
    return list(seen.values())


def _traced_counts(name, items):
    workload = workloads.WORKLOADS[name]
    run.import_library(workload.library_modules)
    ctx = run.Context(cli_env={})
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        run.run_pass(workload, items, checker.PASS_CHECKS[name], ctx, tracer)
    finally:
        tracer.restore()
    return layertrace.layer_metrics(tracer.spans)


@pytest.mark.parametrize("name,pick", [
    ("oracle_sweep", _one_per_stratum),
    ("certify_grid", lambda items: items[:2]),
    ("stroboscopic", lambda items: [i for i in items if i["stratum"] == "rotating+_1_1"][:1]),
])
def test_work_counts_repeat(name, pick):
    items = pick(workloads.WORKLOADS[name].generate(5))
    first = _traced_counts(name, items)
    second = _traced_counts(name, items)
    assert {k: first[k] for k in WORK_COUNTS} == {k: second[k] for k in WORK_COUNTS}
    assert first["elliptic.modulus_builds"] > 0
    if name == "stroboscopic":
        assert first["poincare.rhs_evals"] > 0
    else:
        assert first["melnikov.quadrature_nodes"] > 0
