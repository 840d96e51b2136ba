import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # it imports report_identity
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_nine_wins_in_ten_beyond_the_base_spread_make_a_claim(bench_pairs):
    head = [0.90] * 9 + [1.05]
    line = bench_pairs.verdict("wall_s", "s", True, BASE, head)
    assert "head better in 9/10 pairs" in line and line.endswith("claim holds")


def test_eight_wins_in_ten_make_no_claim(bench_pairs):
    head = [0.90] * 8 + [1.05, 1.05]
    line = bench_pairs.verdict("wall_s", "s", True, BASE, head)
    assert "head better in 8/10 pairs" in line and line.endswith("no claim")


def test_a_gap_inside_the_base_quartiles_makes_no_claim(bench_pairs):
    # every pair won by 0.005, but the base's quartiles lie 0.02 apart
    head = [b - 0.005 for b in BASE]
    line = bench_pairs.verdict("wall_s", "s", True, BASE, head)
    assert "head better in 10/10 pairs" in line and line.endswith("no claim")


def test_ties_count_for_neither_side(bench_pairs):
    line = bench_pairs.verdict("peak_rss_mb", "MB", True, BASE, list(BASE))
    assert "head better in 0/10 pairs" in line and line.endswith("no claim")


def test_a_higher_is_better_metric_wins_upwards(bench_pairs):
    head = [1.2] * 10
    assert bench_pairs.verdict("rate", "1/s", False, BASE, head).endswith("claim holds")
    assert bench_pairs.verdict("rate", "1/s", True, BASE, head).endswith("no claim")


def test_one_pair_has_its_value_as_both_quartiles(bench_pairs):
    line = bench_pairs.verdict("wall_s", "s", True, [2.0], [1.0])
    assert "base 2 [2, 2], head 1 [1, 1]; head better in 1/1 pairs; claim holds" in line
