"""Results say what was measured, and only this checkout's library is measured."""

import sys

import pytest

import run


def test_library_outside_checkout_fails_loudly(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(run.ProvenanceError, match="outside"):
        run.import_library(())


def test_provenance_names_code_seed_and_machine():
    run.import_library(())
    prov = run.provenance("certify_grid", 9, 10.0, 0)
    assert prov["seed"] == 9 and prov["workload"] == "certify_grid"
    assert len(prov["source_sha256"]) == 64
    for key in ("commit", "python", "numpy", "scipy", "nproc", "cpu_model"):
        assert key in prov
    assert prov["melnikov_lab"].startswith(str(run.SRC.resolve()))
