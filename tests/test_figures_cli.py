"""Tests for figure generation, CSV/SVG serialization and the CLI."""

import hashlib
import os

import pytest

from dirtycast import cli, figures, simulate, verify

# the figure CSVs, byte for byte: a change of any digit, row or column moves these
FIGURE_SHA256 = {
    "fig2": "c3b74d73b3b7d869f308da8659534b18160e3b5fa6e5f30020f3d61ee93f3347",
    "fig4": "f768b2f7a8b21401eb25857e37a75d83023efa2960bdc0e38683cba47598a5a1",
    "fig5": "18f2b919a3a6254ff2e3705878c5ffadb79d1956cf1b37d5eda53d824cc3961c",
    "fig6": "cfc4edc4944aebb5c80144895ce6aca45a7b62a1ca0b7fe50389cf70ebf813b2",
}


class TestFigureTables:
    def test_shapes_and_headers(self):
        for name, rows_expected, first_col in (
            ("fig2", 101, "q"),
            ("fig4", 101, "q"),
            ("fig5", 121, "inr_db"),
            ("fig6", 121, "snr_db"),
        ):
            header, rows = figures.figure_table(name)
            assert len(rows) == rows_expected
            assert header[0] == first_col
            assert all(len(r) == len(header) for r in rows)
        assert figures.figure_table("fig2")[0] == ["q", "capacity", "timeshare", "ignore_si"]
        assert figures.figure_table("fig5")[0] == [
            "inr_db",
            "upper_i",
            "upper_ii",
            "lower",
            "timeshare",
            "interference_as_noise",
        ]

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figures.figure_table("fig9")

    def test_fig2_endpoints(self):
        _, rows = figures.figure_table("fig2")
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and first[1] == 1.0 and first[3] == 1.0
        assert last[0] == pytest.approx(0.5)
        assert last[1] == pytest.approx(0.5, abs=1e-12)  # capacity
        assert last[2] == 0.5  # timeshare
        assert last[3] == pytest.approx(0.0, abs=1e-12)  # ignore_si

    def test_fig4_bounds_meet_at_half(self):
        _, rows = figures.figure_table("fig4")
        last = rows[-1]
        assert last[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert last[2] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fig5_high_inr_tail(self):
        # at the right edge the achievable rate has collapsed onto time-sharing
        _, rows = figures.figure_table("fig5")
        last = rows[-1]
        assert last[0] == pytest.approx(50.0)
        assert last[3] == pytest.approx(last[4], abs=1e-12)  # lower == timeshare
        # the upper curves converge only as O(sqrt(P/Q)); at 50 dB they still
        # sit a couple tenths of a bit above
        assert min(last[1], last[2]) - last[4] < 0.25


class TestCsv:
    def test_formatting(self):
        assert figures.format_number(0.5) == "0.5"
        assert figures.format_number(1995.2623149688789) == "1995.26231"
        assert figures.format_number(1.0 / 3.0) == "0.333333333"

    def test_render_deterministic(self, tmp_path):
        header, rows = figures.figure_table("fig6")
        text = figures.render_csv(header, rows)
        assert text.splitlines()[0] == "snr_db,upper_i,upper_ii,lower,timeshare,interference_as_noise"
        out = tmp_path / "fig6.csv"
        figures.write_csv(out, header, rows)
        assert out.read_bytes().decode("ascii") == text

    def test_render_matches_the_pinned_bytes(self):
        texts = {name: figures.render_csv(*figures.figure_table(name)) for name in figures.FIGURES}
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
        assert digests == FIGURE_SHA256

    def test_svg_writer(self, tmp_path):
        header, rows = figures.figure_table("fig2")
        out = tmp_path / "fig2.svg"
        figures.write_svg(out, header, rows, title="fig2")
        text = out.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline") == len(header) - 1


class TestCliBounds:
    def test_binary_point(self, capsys):
        assert cli.main(["bounds", "--binary", "--q", "0.5", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "xor-capacity" in out and "exact" in out and "0.5" in out

    def test_gaussian_all_equal_at_zero_inr(self, capsys):
        assert cli.main(["bounds", "--gaussian", "--snr-db", "0", "--inr", "0"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            method, _, value = line.split()
            if method != "time-sharing":
                assert value == "0.5"

    def test_gaussian_fig6_point(self, capsys):
        argv = ["bounds", "--gaussian", "--snr-db", "33", "--inr-db", "15", "--k", "3"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gaussian multicast, K=3, P=1995.26231, Q=31.6227766",
            "envelope               upper  4.1568126",
            "upper-I                upper  4.32131618",
            "upper-II               upper  4.1568126",
            "superposition-dpc      lower  3.99151068",
            "time-sharing           lower  2.7407714",
            "interference-as-noise  lower  2.97897626",
            "trivial-awgn           upper  5.4815428",
            "upper-K3               upper  3.72741118",
        ]

    def test_correlated_point(self, capsys):
        assert cli.main(["bounds", "--correlated", "--snr", "10", "--qd", "16"]) == 0
        out = capsys.readouterr().out
        assert "0.953445298" in out

    def test_k_user_row_appears(self, capsys):
        assert cli.main(["bounds", "--gaussian", "--snr", "10", "--inr", "100", "--k", "3"]) == 0
        assert "upper-K3" in capsys.readouterr().out

    def test_binary_three_user_point(self, capsys):
        assert cli.main(["bounds", "--binary", "--q", "0.5", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "joint-xor-converse" in out and "block-precancellation" in out
        assert out.count("0.333333333") >= 3

    def test_binary_noisy_point(self, capsys):
        assert cli.main(["bounds", "--binary", "--q", "0.25", "--noise-q", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "noisy-precancellation" in out and "0.280026906" in out
        assert "noisy-converse" in out and "0.288285202" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--gaussian", "--snr", "1", "--snr-db", "0", "--inr", "1"],
            ["bounds", "--binary", "--gaussian", "--q", "0.2", "--snr", "1", "--inr", "1"],
            ["bounds", "--binary"],
            ["bounds", "--binary", "--q", "1.5"],
            ["bounds", "--binary", "--q", "0.2", "--k", "1"],
            ["bounds", "--binary", "--q", "0.2", "--k", "3", "--noise-q", "0.1"],
            ["bounds", "--gaussian", "--snr", "1"],
            ["bounds", "--gaussian", "--snr", "-2", "--inr", "1"],
            ["bounds", "--correlated", "--snr", "10", "--qd", "9", "--q1", "1", "--q2", "1"],
            ["figure", "fig9"],
            ["simulate", "--q", "0.2", "--n", "24"],
            ["simulate", "--q", "1.5", "--n", "24", "--rate", "0.25"],
            ["simulate", "--q", "0.2", "--n", "23", "--rate", "0.25"],
            ["bounds", "--gaussian", "--snr", "nan", "--inr", "1"],
            ["bounds", "--gaussian", "--snr", "1e400", "--inr", "1"],
            ["bounds", "--gaussian", "--snr-db", "4000", "--inr", "1"],
            ["bounds", "--gaussian", "--snr", "1", "--inr", "1", "--k", "0"],
            ["bounds", "--gaussian", "--snr", "1", "--inr", "1", "--k", "1"],
            ["simulate", "--q", "0.2", "--n", "24", "--rate", "0.25", "--threads", "0"],
            ["bounds", "--correlated", "--snr", "10", "--qd", "nan"],
            ["simulate", "--q", "0.25", "--n", "24", "--rate", "0.25", "--mi-only"],
            ["simulate", "--q", "0.25", "--n", "24", "--mi-only", "--codebook", "linear"],
        ],
    )
    def test_invalid_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_library_error_prints_the_command_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--gaussian", "--snr", "nan", "--inr", "1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dirtycast bounds ")
        assert "P must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--snr-db", "4000", "--inr", "1"], "P = 4000 dB overflows a float"),
            (["--snr", "1", "--inr-db", "4000"], "Q = 4000 dB overflows a float"),
        ],
    )
    def test_db_overflow_names_the_quantity(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--gaussian"] + argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_qd_is_reported_as_qd(self, capsys):
        # Q1 defaults to Qd/4, so the message must name the flag that was given
        with pytest.raises(SystemExit):
            cli.main(["bounds", "--correlated", "--snr", "10", "--qd", "nan"])
        assert "Qd must be finite and nonnegative" in capsys.readouterr().err


class TestCliFigure:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        svg = tmp_path / "fig4.svg"
        assert cli.main(["figure", "fig4", "--out", str(out), "--svg", str(svg)]) == 0
        assert out.exists() and svg.exists()
        assert out.read_text().splitlines()[0] == "q,upper_k3,lower_k3,timeshare,ignore_si"

    def test_reruns_are_byte_identical(self, tmp_path):
        for out in (tmp_path / "a.csv", tmp_path / "b.csv"):  # each run writes the pinned bytes
            assert cli.main(["figure", "fig5", "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256["fig5"]

    def test_io_error_exit_3(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert cli.main(["figure", "fig2", "--out", str(target)]) == 3


class TestCliSimulate:
    def test_deterministic_across_threads(self, capsys, monkeypatch):
        seen, pool = [], simulate.ThreadPoolExecutor
        monkeypatch.setattr(simulate, "ThreadPoolExecutor",
                            lambda max_workers: seen.append(max_workers) or pool(max_workers))
        monkeypatch.setattr(simulate, "DECODE_BLOCK", 640)  # 20 batches of 10 trials
        argv = ["simulate", "--q", "0.25", "--n", "24", "--rate", "0.25",
                "--trials", "200", "--seed", "7"]
        assert cli.main(argv + ["--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert cli.main(argv + ["--threads", str(os.cpu_count() + 1)]) == 0
        second = capsys.readouterr().out
        assert seen == ([os.cpu_count()] if os.cpu_count() > 1 else [])
        assert first == second
        assert "frame error rate" in first

    def test_mi_only(self, capsys):
        argv = ["simulate", "--q", "0.25", "--n", "100000", "--mi-only", "--seed", "7"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "frame error rate" not in out
        assert "precancellation rate at the measured crossover" in out

    def test_clean_channel_zero_fer(self, capsys):
        argv = ["simulate", "--q", "0", "--n", "24", "--rate", "0.25",
                "--trials", "100", "--seed", "7"]
        assert cli.main(argv) == 0
        assert "union 0" in capsys.readouterr().out

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        argv = ["simulate", "--q", "0.25", "--n", "16", "--rate", "0.25",
                "--trials", "50", "--seed", "1", "--csv", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("fer_union,") for line in lines)

    def test_infeasible_codebook_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--q", "0.25", "--n", "200", "--rate", "0.5"])
        assert err.value.code == 2


class TestCliVerify:
    def test_verify_passes_and_prints_lines(self, capsys, monkeypatch):
        def stub():
            raise AssertionError("stub failed")
        monkeypatch.setattr(verify, "CHECKS", (verify.CHECKS[0], ("stub", stub)))
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS  entropy-basics: ")
        assert lines[1:] == ["FAIL  stub: stub failed", "1/2 checks passed"]
