import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_identity.py"


@pytest.fixture(scope="module")
def report_identity():
    spec = importlib.util.spec_from_file_location("report_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_out(out: Path, summary: dict, tsv: str = "method\tnmse\nmkl\t0.5\n", traces=None) -> Path:
    out.mkdir()
    (out / "report.tsv").write_text(tsv)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if traces is not None:
        (out / "traces").mkdir()
        (out / "traces" / "mkl_trial0.tsv").write_text(traces)
    return out


SUMMARY = {
    "config": {"trials": 2},
    "rows": [{"method": "gk_df", "nmse_mean": 0.25, "mu_selected": [0.001, 0.01], "notes": "knob=5"},
             {"method": "mkl", "nmse_mean": 0.5, "mu_selected": [0.001], "notes": ""}],
    "extras": {},
}


def test_identical_outputs_have_no_diff_line(report_identity, tmp_path):
    base = write_out(tmp_path / "base", SUMMARY, traces="a\n1\n")
    head = write_out(tmp_path / "head", SUMMARY, traces="a\n1\n")
    lines = report_identity.compare(base, head)
    assert [line.split(" (")[0] for line in lines] == [
        "same report.tsv", "same summary.json", "same traces/mkl_trial0.tsv",
    ]


def test_a_differing_summary_lists_every_differing_path(report_identity, tmp_path):
    head_summary = json.loads(json.dumps(SUMMARY))
    head_summary["rows"][0]["nmse_mean"] = 0.25 * (1 + 4e-16)
    head_summary["rows"][0]["mu_selected"] = [0.001]
    head_summary["rows"][1]["notes"] = "changed"
    head_summary["extras"]["new"] = 1
    base = write_out(tmp_path / "base", SUMMARY)
    head = write_out(tmp_path / "head", head_summary, tsv="method\tnmse\nmkl\t0.6\n")
    lines = report_identity.compare(base, head)
    assert lines[0] == "DIFF report.tsv: contents differ"
    assert lines[1] == "  nmse: 1 of 1 rows differ (max rel 0.167)"
    assert lines[2] == "DIFF summary.json: contents differ"
    rel = f"{abs(0.25 - head_summary['rows'][0]['nmse_mean']) / head_summary['rows'][0]['nmse_mean']:.3g}"
    assert lines[3:] == [
        "  extras.new: base '<missing>' head 1 (rel -)",
        "  rows[0].mu_selected[1]: base 0.01 head '<missing>' (rel -)",
        f"  rows[0].nmse_mean: base 0.25 head {head_summary['rows'][0]['nmse_mean']!r} (rel {rel})",
        "  rows[1].notes: base '' head 'changed' (rel -)",
    ]


def test_masked_timings_are_not_listed(report_identity, tmp_path):
    base_summary = dict(SUMMARY, rows=[dict(SUMMARY["rows"][1], newnode_time=0.1)],
                        extras={"per_method": {"mkl": {"60": 0.1}}})
    head_summary = dict(SUMMARY, rows=[dict(SUMMARY["rows"][1], newnode_time=0.2, nmse_mean=0.75)],
                        extras={"per_method": {"mkl": {"60": 0.2}}})
    base = write_out(tmp_path / "base", base_summary)
    head = write_out(tmp_path / "head", head_summary)
    lines = report_identity.compare(base, head, masked=True)
    assert lines[1:] == [
        "DIFF summary.json: contents differ, timings masked",
        "  rows[0].nmse_mean: base 0.5 head 0.75 (rel 0.333)",
    ]


def test_a_file_on_one_side_only_is_a_difference(report_identity, tmp_path):
    base = write_out(tmp_path / "base", SUMMARY, traces="a\n1\n")
    head = write_out(tmp_path / "head", SUMMARY)
    assert report_identity.compare(base, head)[-1] == "DIFF traces/mkl_trial0.tsv: only in base"


def test_a_differing_table_lists_every_differing_column(report_identity, tmp_path):
    base_tsv = "t\tcum\toracle\tnote\n1\t0.5\t2.0\ta\n2\t1.0\t4.0\tb\n3\t1.5\t8.0\tc\n"
    head_tsv = "t\tcum\toracle\tnote\n1\t0.5\t2.0\ta\n2\t1.0\t4.000001\tb\n3\t1.5\t8.0004\td\n"
    base = write_out(tmp_path / "base", SUMMARY, tsv=base_tsv, traces=base_tsv)
    head = write_out(tmp_path / "head", SUMMARY, tsv=head_tsv, traces=head_tsv)
    table = ["  oracle: 2 of 3 rows differ (max rel 5e-05)", "  note: 1 of 3 rows differ (max rel -)"]
    assert report_identity.compare(base, head) == [
        "DIFF report.tsv: contents differ", *table,
        f"same summary.json ({(base / 'summary.json').stat().st_size} bytes)",
        "DIFF traces/mkl_trial0.tsv: contents differ", *table,
    ]


def test_a_table_with_other_columns_or_rows_says_so(report_identity, tmp_path):
    base = write_out(tmp_path / "base", SUMMARY, tsv="t\tx\n1\t1.0\n2\t2.0\n")
    head = write_out(tmp_path / "head", SUMMARY, tsv="t\ty\n1\t1.0\n")
    assert report_identity.compare(base, head)[:3] == [
        "DIFF report.tsv: contents differ", "  header: base ['t', 'x'] head ['t', 'y']", "  rows: base 2 head 1",
    ]
