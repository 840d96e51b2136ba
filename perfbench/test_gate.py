"""Checks of the benchmark's own correctness gate and tracer.

Run with ``python3 -m pytest perfbench``.
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import gate  # noqa: E402
from spans import Layer, MissingTargetError, Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

REFERENCES = gate.load_references()


def _perturb_first_float(value, factor):
    """Scale the first float found (depth first) in a JSON-like value, in place."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, float):
            value[key] = item * factor
            return True
        if isinstance(item, (dict, list)) and _perturb_first_float(item, factor):
            return True
    return False


def _ledger(name, seed=0):
    return run.Ledger(WORKLOADS[name], seed, REFERENCES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_outputs_pass_the_gate(name):
    ledger = _ledger(name)
    ledger.record(PassResult(1.0, copy.deepcopy(REFERENCES[name]), 10, 0))
    assert ledger.correct and ledger.failed == 0 and ledger.attempted == 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_output_counts_as_failure(name):
    outputs = copy.deepcopy(REFERENCES[name])
    assert _perturb_first_float(outputs, 1.0 + 1e-4)
    ledger = _ledger(name)
    ledger.record(PassResult(1.0, outputs, 10, 0))
    assert not ledger.correct
    assert ledger.failed == 10
    assert any(p.startswith("reference:") for p in ledger.problems)


def test_tolerance_admits_last_digit_noise():
    outputs = copy.deepcopy(REFERENCES["join"])
    _perturb_first_float(outputs, 1.0 + 1e-12)
    assert gate.compare(outputs, REFERENCES["join"]) == []


def test_other_seeds_check_invariants_only():
    outputs = copy.deepcopy(REFERENCES["synthetic"])
    outputs["mkl"]["nmse"] = [1.5 * v for v in outputs["knn"]["nmse"]]
    ledger = _ledger("synthetic", seed=7)
    ledger.record(PassResult(1.0, outputs, 1, 0))
    assert ledger.failed == 1
    assert all(p.startswith("invariant:") for p in ledger.problems)


def test_repeated_pass_must_repeat_outputs():
    ledger = _ledger("regret", seed=7)
    first = copy.deepcopy(REFERENCES["regret"])
    second = copy.deepcopy(first)
    _perturb_first_float(second, 1.0 + 1e-4)
    ledger.record(PassResult(1.0, first, 1, 0))
    ledger.record(PassResult(1.0, second, 1, 0))
    assert ledger.failed == 1 and ledger.attempted == 2
    assert ledger.problems[0].startswith("repeat:")


def test_missing_wrap_target_fails_by_name():
    tracer = Tracer([Layer("gone", "graphrf.harness.no_such_function")])
    with pytest.raises(MissingTargetError, match="graphrf.harness.no_such_function"):
        tracer.check_targets()


def test_tracer_measures_self_time_and_restores_targets():
    import graphrf.harness as harness

    original = harness.knn_predict
    tracer = Tracer([Layer("baselines.knn_predict", "graphrf.harness.knn_predict")])
    with tracer.installed():
        assert harness.knn_predict is not original
        with tracer.span("harness.root"):
            with pytest.raises(IndexError):
                harness.knn_predict(harness.erdos_renyi(5, 0.5, 0), {}, 99, 1)
    assert harness.knn_predict is original
    stats = tracer.take_stats()
    assert stats["baselines.knn_predict"]["calls"] == 1
    assert stats["baselines.knn_predict"]["errors"] == 1
    root = stats["harness.root"]
    assert root["self_s"] == pytest.approx(root["s"] - stats["baselines.knn_predict"]["s"])
    assert tracer.n_spans == 2
