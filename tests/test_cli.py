import json
import math

import numpy as np
import pytest

from graphrf.cli import main


def write_config(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


SMALL_SYNTH = """
n_nodes = 40
trials = 2
sample_fraction = 0.2
d = 8
methods = mkl,knn
scenario = identity
"""


class TestEncodeCommand:
    def test_zero_vector_emits_normalized_sines_cosines(self, capsys):
        assert main(["encode", "--vector", "0,0,0,0", "--d", "3", "--seed", "1"]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        expected = [0.0] * 3 + [3**-0.5] * 3
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_json_format(self, capsys):
        assert main(["encode", "--vector", "1,0", "--d", "2", "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)
        assert len(values) == 4
        assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-12)

    def test_vector_file(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("0\n0\n0\n")
        assert main(["encode", "--vector-file", str(vec), "--d", "1"]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        np.testing.assert_allclose(values, [0.0, 1.0], atol=1e-12)

    def test_bom_comments_and_blank_lines_encode_like_the_plain_file(self, tmp_path, capsys):
        plain, decorated = tmp_path / "plain.txt", tmp_path / "decorated.txt"
        plain.write_text("0.5\n1\n-2\n")
        decorated.write_bytes("\ufeff# a pattern\r\n\n0.5 # first\r\n1\n\n-2  # last".encode("utf-8"))
        outputs = []
        for path in (plain, decorated):
            assert main(["encode", "--vector-file", str(path), "--d", "3", "--seed", "4"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_vector_file_names_the_line_that_is_not_a_number(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("# pattern\n1\nx\n")
        assert main(["encode", "--vector-file", str(vec)]) == 1
        assert capsys.readouterr().err == "error: line 3: 'x' is not a number\n"

    def test_vector_names_the_entry_that_is_not_a_number(self, capsys):
        assert main(["encode", "--vector", "1,x"]) == 1
        assert capsys.readouterr().err == "error: --vector entry 2: 'x' is not a number\n"

    def test_vector_counts_empty_entries_in_the_position(self, capsys):
        assert main(["encode", "--vector", "1,,2, y "]) == 1
        assert capsys.readouterr().err == "error: --vector entry 4: 'y' is not a number\n"

    def test_missing_vector_is_diagnosed(self, capsys):
        assert main(["encode", "--d", "3"]) == 1
        assert capsys.readouterr().err == "error: encode needs --vector or --vector-file\n"

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["encode", "--vector", "0,1", "--seed", "-1"]) == 1
        assert "error: --seed must be >= 0" in capsys.readouterr().err

    def test_infinite_bandwidth_is_diagnosed(self, capsys):
        assert main(["encode", "--vector", "0,1", "--bandwidth", "inf"]) == 1
        assert "error: bandwidth must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--out", "reports"), ("--config", "config.txt")])
    def test_report_flags_refused(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["encode", "--vector", "0,1", flag, str(tmp_path / value)])
        assert excinfo.value.code == 2

    def test_deterministic_per_seed(self, capsys):
        main(["encode", "--vector", "1,1,0", "--d", "4", "--seed", "9"])
        first = capsys.readouterr().out
        main(["encode", "--vector", "1,1,0", "--d", "4", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestRunCommands:
    def test_synthetic_deterministic_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SYNTH)
        assert main(["synthetic", "--config", config, "--seed", "3", "--out", str(tmp_path / "a")]) == 0
        out_a = capsys.readouterr().out
        assert main(["synthetic", "--config", config, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert (tmp_path / "a/report.tsv").read_bytes() == (tmp_path / "b/report.tsv").read_bytes()
        assert (tmp_path / "a/summary.json").exists()

    def test_json_format_parses(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SYNTH)
        assert main(["synthetic", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["method"] for row in payload["rows"]} == {"mkl", "knn"}

    def test_regret_command(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            """
            n_nodes = 40
            trials = 1
            regret_T = 80
            d = 5
            eta = auto
            scenario = identity
            """,
        )
        assert main(["regret", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extras"]["T"] == 80
        assert payload["extras"]["eta"] == pytest.approx(1 / math.sqrt(80))

    def test_short_regret_run_writes_unfitted_exponent_as_null(self, tmp_path, capsys):
        # at T <= 8 the fit window holds fewer than two positive regrets
        config = write_config(tmp_path, "n_nodes = 20\ntrials = 1\nregret_T = 5\nd = 5\n")
        assert main(["regret", "--config", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["extras"]["fitted_exponents"] == [None]
        assert summary["extras"]["mean_fitted_exponent"] is None
        assert (tmp_path / "out" / "traces" / "regret_trial0.tsv").exists()

    @pytest.mark.parametrize(
        "command, extra, trace",
        [("regret", "regret_T = 30\n", "regret_trial0.tsv"), ("synthetic", "", "mkl_trial0.tsv")],
    )
    def test_every_trace_cell_is_a_number(self, tmp_path, capsys, command, extra, trace):
        # SMALL_SYNTH less sample_fraction and methods, which regret does not read
        base = SMALL_SYNTH if command == "synthetic" else "n_nodes = 40\ntrials = 2\nd = 8\nscenario = identity\n"
        config = write_config(tmp_path, base + extra)
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "traces" / trace).read_text().splitlines()
        assert len(lines) > 1
        for line in lines[1:]:
            for cell in line.split("\t"):
                float(cell)

    def test_bench_command(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            """
            scenario = identity
            bench_sizes = 25,50
            d = 6
            methods = mkl
            sample_fraction = 0.2
            timing_reps = 2
            timing_nodes = 4
            """,
        )
        assert main(["bench-newnode", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["extras"]["per_method"]["mkl"]) >= {"25", "50"}

    def test_dataset_command(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
        lines = [f"a{i} a{j}" for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.5]
        edges.write_text("\n".join(lines) + "\n")
        labels.write_text("\n".join(f"a{i} {rng.normal():.4f}" for i in range(10)) + "\n")
        config = write_config(
            tmp_path,
            f"""
            edge_list = {edges}
            labels = {labels}
            trials = 1
            sample_counts = 4
            d = 5
            methods = knn
            """,
        )
        assert main(["dataset", "--config", config]) == 0
        assert "knn" in capsys.readouterr().out


class TestErrorPaths:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthetic", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_config_file_exits_1(self, capsys):
        assert main(["synthetic", "--config", "/no/such/file"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, "sample_fraction = 2.0\n")
        assert main(["synthetic", "--config", config]) == 1
        assert "sample_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["task = synthetic", "emit_traces = true"])
    def test_a_key_that_no_run_reads_exits_1_naming_it(self, tmp_path, capsys, line):
        # the subcommand picks the run, and every run with mkl writes its traces
        config = write_config(tmp_path, SMALL_SYNTH + line + "\n")
        assert main(["synthetic", "--config", config, "--out", str(tmp_path / "out")]) == 1
        key = line.split(" = ")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_key_the_run_does_not_read_exits_1_naming_it_and_the_run(self, tmp_path, capsys):
        # regret streams one mkl model; it trains no other method
        config = write_config(tmp_path, "methods = knn\n")
        assert main(["regret", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "error: regret runs ignore methods, got ['knn']: leave it out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
