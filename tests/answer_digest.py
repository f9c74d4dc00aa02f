"""The answers a bit-for-bit refactor must keep, as one JSON line.

Run from the repository root:

    PYTHONPATH=src python tests/answer_digest.py

It answers the four benchmark workloads' items with perfbench/workloads.py's
own item generators and answer calls, and prints {"stroboscopic",
"certify_grid", "oracle_sweep", "cli_cold"}:

- stroboscopic: the seed-7 pass of find_subharmonic items, with its flows
  and RHS evaluations read from each poincare._dop853_flow call's own
  attempts (tests/oracles.py's counted_flows, as tests/subharmonic_grid.py
  counts them), the md5 of the answers with each item's
  flows and evaluations, and answers_md5, the md5 of the answers alone
  (a change to Newton's path that keeps every answer keeps it);
- certify_grid: the md5 of the certificates of seeds 1 and 7, each
  serialised with json.dumps(sort_keys=True);
- oracle_sweep: the md5 of the oracle answers of seeds 1 and 7, each complex
  value written as [real, imag];
- cli_cold: the md5 of the cli_cold argv of seeds 1 and 7, each run through
  melnikov_lab.cli.main in process by tests/golden/regen.py's call, kept
  as {code, stdout, stderr}.

Run it on two trees: a change that keeps every answer bit for bit prints
the same line.  It takes about 2 s on a 2-CPU Xeon; pytest does not
collect it.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from golden.regen import call  # noqa: E402
from oracles import counted_flows  # noqa: E402


def _complex_pair(z):
    return [z.real, z.imag]


def _md5(records):
    text = "\n".join(json.dumps(rec, sort_keys=True, default=_complex_pair) for rec in records)
    return hashlib.md5(text.encode()).hexdigest()


def stroboscopic(seed=7):
    """{items, flows, rhs_evals, md5} of one stroboscopic pass."""
    answers = []
    with counted_flows() as flows:
        for item in workloads.strobo_items(seed):
            start = len(flows)
            answer = workloads.answer_strobo(item)
            answer["flows"] = len(flows) - start
            answer["rhs_evals"] = sum(flow.nfev for flow in flows[start:])
            answers.append(answer)
    return {
        "items": len(answers),
        "flows": len(flows),
        "rhs_evals": sum(flow.nfev for flow in flows),
        "md5": _md5(answers),
        "answers_md5": _md5(
            [{k: v for k, v in a.items() if k not in ("flows", "rhs_evals")} for a in answers]
        ),
    }


def certify_grid(seeds=(1, 7)):
    """{certificates, md5} of the certify_grid items of seeds."""
    certificates = [
        workloads.answer_certify(item) for seed in seeds for item in workloads.certify_items(seed)
    ]
    return {"certificates": len(certificates), "md5": _md5(certificates)}


def oracle_sweep(seeds=(1, 7)):
    """{items, md5} of the oracle_sweep items of seeds."""
    answers = [
        workloads.answer_oracle(item) for seed in seeds for item in workloads.oracle_items(seed)
    ]
    return {"items": len(answers), "md5": _md5(answers)}


def cli_cold(seeds=(1, 7)):
    """{runs, md5} of the cli_cold argv of seeds, run in process."""
    outputs = [
        dict(zip(("code", "stdout", "stderr"), call(item["argv"])))
        for seed in seeds
        for item in workloads.cli_items(seed)
    ]
    return {"runs": len(outputs), "md5": _md5(outputs)}


if __name__ == "__main__":
    print(json.dumps({
        "stroboscopic": stroboscopic(),
        "certify_grid": certify_grid(),
        "oracle_sweep": oracle_sweep(),
        "cli_cold": cli_cold(),
    }))
