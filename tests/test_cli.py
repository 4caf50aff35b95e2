"""End-to-end command-line tests: every command, exit codes, config merging,
and byte-identical reruns."""

import csv
import datetime
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_outcome, count_eighs, count_fits, count_numpy_calls, count_rank_builds,
    count_sorts,
)

from tailjoint.cli import main, parse_model_spec
from tailjoint.equality_tests import equality_test
from tailjoint.errors import DomainError, NotPositiveSemidefiniteError, TailjointError
from tailjoint.inference import _by_group, _regions, confidence_region, estimate_covariance
from tailjoint.sample import MultivariateSample, emit_csv, ingest_csv, tau_from_k
from tailjoint.taildep import extremal_coefficient


def write_sample_csv(path, n=500, d=2, seed=5, gamma=1.0 / 3.0, scale=1.0):
    rng = np.random.default_rng(seed)
    u = rng.random((n, d))
    values = scale * (1.0 - u) ** -gamma
    lines = [",".join(f"X{j + 1}" for j in range(d))]
    lines += [",".join(format(x, ".17g") for x in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_price_csv(path, weeks=8):
    start = datetime.date(2021, 1, 4)
    lines = ["date,A,B"]
    p = np.array([100.0, 50.0])
    for day in range(weeks * 7):
        date = start + datetime.timedelta(days=day)
        if date.weekday() < 5:
            p = p * np.exp([0.01 * ((day % 5) - 2), -0.008 * ((day % 3) - 1)])
            lines.append(f"{date.isoformat()},{p[0]:.10f},{p[1]:.10f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def data_csv(tmp_path):
    return write_sample_csv(tmp_path / "data.csv")


class TestEstimate:
    def test_writes_json(self, tmp_path, data_csv):
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(data_csv), "--k", "50", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["schema_version"] == "1"
        assert doc["k"] == 50 and doc["n"] == 500 and doc["d"] == 2
        assert len(doc["margins"]) == 2
        m = doc["margins"][0]
        for key in ("gamma_hat", "q_hat", "xi_laws", "xi_qb",
                    "xi_star_laws", "xi_star_qb", "interval_laws", "interval_qb"):
            assert key in m
        assert m["interval_laws"]["lower"] < m["xi_star_laws"] < m["interval_laws"]["upper"]

    def test_stdout_when_no_out(self, capsys, data_csv):
        assert main(["estimate", "--input", str(data_csv), "--tau", "0.9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "estimate"
        assert doc["tau"] == 0.9

    def test_reruns_byte_identical(self, tmp_path, data_csv):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["estimate", "--input", str(data_csv), "--k", "50",
                         "--out", str(out)]) == 0
        assert (outs[0] / "estimate.json").read_bytes() == (
            outs[1] / "estimate.json"
        ).read_bytes()

    def test_k_and_tau_exclusive(self, data_csv, capsys):
        assert main(["estimate", "--input", str(data_csv)]) == 1
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--tau", "0.9"]) == 1
        assert "exactly one of --k and --tau" in capsys.readouterr().err

    def test_method_selects_fields(self, tmp_path, data_csv, capsys):
        docs = {}
        for method in ("both", "laws", "qb"):
            out = tmp_path / method
            assert main(["estimate", "--input", str(data_csv), "--k", "50",
                         "--method", method, "--out", str(out)]) == 0
            docs[method] = json.loads((out / "estimate.json").read_text())
        table = capsys.readouterr().out
        assert "xi~*" in table and "xi^*" in table
        both = docs["both"]["margins"]
        for method, other in (("laws", "qb"), ("qb", "laws")):
            dropped = {f"xi_star_{other}", f"interval_{other}"}
            for full, m in zip(both, docs[method]["margins"]):
                assert m == {key: v for key, v in full.items() if key not in dropped}
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--method", "mean"]) == 1
        assert "--method must be" in capsys.readouterr().err

    def test_star_laws_covariance_built_once(self, tmp_path, monkeypatch, capsys):
        # The star-LAWS covariance is the only matrix of a LAWS estimate:
        # one eigh of a stack of one builds and checks it for every margin.
        data = write_sample_csv(tmp_path / "d5.csv", n=1000, d=5, gamma=0.25)
        eighs = count_eighs(monkeypatch)
        assert main(["estimate", "--input", str(data), "--k", "100",
                     "--method", "laws"]) == 0
        capsys.readouterr()
        assert eighs == [1]

    def test_interval_endpoint_overflow_exits_1(self, tmp_path, capsys):
        # gamma-hat just below 1/2 at k=20: the LAWS interval's upper
        # endpoint overflows.
        excesses = 0.49999999 + np.linspace(-0.3, 0.3, 20)
        values = np.concatenate([np.linspace(0.5, 1.0, 180), np.exp(excesses)])
        csv = tmp_path / "heavy.csv"
        csv.write_text("a\n" + "".join(f"{x:.17g}\n" for x in values), encoding="utf-8")
        assert main(["estimate", "--input", str(csv), "--k", "20",
                     "--tau-prime", "0.999"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: margin 'a': non-finite interval endpoint\n"

    def test_level_errors_name_no_margin(self, data_csv, capsys):
        # The levels are the panel's: an extreme level below tau, or a tau
        # of k = 1, fails before any margin's row.
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--tau-prime", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error: levels must satisfy 0 < tau < tau_prime < 1, got tau=0.9, tau_prime=0.5\n"
        )
        assert main(["estimate", "--input", str(data_csv), "--tau", "0.998",
                     "--tau-prime", "0.9999"]) == 1
        assert capsys.readouterr().err == (
            "error: effective size k=1 outside [2, n-1] for n=500\n"
        )

    def test_blank_dated_file_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "blank.csv"
        csv.write_text("\n" * 5)
        assert main(["estimate", "--input", str(csv), "--date-column", "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {csv}: row 2, column 1: missing date\n"

    def test_missing_input_is_hard_error(self, tmp_path, capsys):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--k", "50"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--k", "1"], "--k must lie in [2, 499] for n=500"),
        (["--k", "500"], "--k must lie in [2, 499] for n=500"),
        (["--tau", "1.0"], "--tau must lie in (0,1), got 1.0"),
        (["--k", "50", "--alpha", "0"], "alpha must be in (0,1), got 0.0"),
    ])
    def test_level_out_of_range_exits_1(self, data_csv, capsys, flags, message):
        assert main(["estimate", "--input", str(data_csv), *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestRegion:
    def test_bivariate_regions_and_boundaries(self, tmp_path, data_csv):
        out = tmp_path / "out"
        code = main(["region", "--input", str(data_csv), "--k", "50",
                     "--tau-prime", "0.999", "--out", str(out)])
        assert code == 0
        docs = json.loads((out / "regions.json").read_text())
        assert [d["method"] for d in docs] == ["laws", "qb"]
        assert all(d["status"] == "ok" for d in docs)
        for method in ("laws", "qb"):
            lines = (out / f"boundary_X1-X2_{method}.csv").read_text().splitlines()
            assert lines[0] == "X1,X2"
            assert len(lines) == 513

    def test_intermediate_flag(self, data_csv, capsys):
        assert main(["region", "--input", str(data_csv), "--k", "50",
                     "--intermediate"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert all(d["status"] == "ok" for d in docs)

    @pytest.mark.parametrize("tau_prime", ["0.999", "0.5"])
    def test_intermediate_rejects_tau_prime(self, data_csv, capsys, tau_prime):
        # An intermediate region has no extreme level: a --tau-prime, valid
        # or not, is an error and not dropped.
        assert main(["region", "--input", str(data_csv), "--k", "50",
                     "--intermediate", "--tau-prime", tau_prime]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --intermediate does not read --tau-prime\n"

    def test_boundary_files_of_any_label(self, tmp_path):
        # Exchange-rate labels hold a "/", which names no file; "%" is
        # escaped too, so that no two label pairs share a name.  A header
        # cell holding a comma or a quote is quoted.
        labels = ["GBP/USD", "a,b", 'q"x', "50%"]
        data = write_sample_csv(tmp_path / "data.csv", d=4)
        rows = data.read_text().splitlines()[1:]
        with data.open("w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerow(labels)
            f.write("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["region", "--input", str(data), "--k", "50", "--out", str(out)]) == 0
        names = {"GBP/USD": "GBP%2FUSD", "a,b": "a,b", 'q"x': 'q"x', "50%": "50%25"}
        expected = {"regions.json"}
        for pair in itertools.combinations(labels, 2):
            for method in ("laws", "qb"):
                name = f"boundary_{names[pair[0]]}-{names[pair[1]]}_{method}.csv"
                expected.add(name)
                with (out / name).open(newline="") as f:
                    table = list(csv.reader(f))
                assert table[0] == list(pair)
                assert {len(row) for row in table[1:]} == {2}
        assert {p.name for p in out.iterdir()} == expected

    @pytest.mark.filterwarnings("error")
    def test_boundary_beyond_the_float_range_fails_in_band(self, tmp_path, capsys):
        # A 5 x 5 panel near 1e303 at k = 4: three QB pair regions are
        # computed, and the boundaries of two of them pass the float max.
        # Those fail with their reason and write no file; the third is
        # written, so the run exits 2.
        panel = [
            [1.44e+303, 1.97e+303, 2.67e+303, 2.35e+303, 4.46e+303],
            [3.42e+303, 4.54e+303, 1.23e+303, 1.64e+303, 1.72e+303],
            [1.25e+303, 1.21e+303, 3.09e+303, 1.05e+304, 2.72e+303],
            [1.48e+303, 2.3e+303, 1.46e+303, 2.47e+303, 1.44e+303],
            [2.71e+303, 1.24e+304, 1.16e+304, 3.75e+303, 4.39e+303],
        ]
        data = tmp_path / "data.csv"
        data.write_text(
            "a,b,c,d,e\n" + "".join(",".join(map(repr, row)) + "\n" for row in panel),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["region", "--input", str(data), "--k", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        docs = json.loads((out / "regions.json").read_text())
        reasons = {tuple(d["margins"]): d.get("error") for d in docs if d["method"] == "qb"}
        assert {pair for pair, error in reasons.items() if error is None} == {("a", "e")}
        for pair in (("a", "d"), ("d", "e")):
            assert reasons[pair] == "non-finite region boundary point"
        assert {p.name for p in out.iterdir()} == {"regions.json", "boundary_a-e_qb.csv"}
        rows = (out / "boundary_a-e_qb.csv").read_text().splitlines()[1:]
        assert len(rows) == 512
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))

    def test_univariate_rejected(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "one.csv", d=1)
        assert main(["region", "--input", str(csv), "--k", "50"]) == 1
        assert "two margins" in capsys.readouterr().err


class TestTestCommand:
    def test_all_testers_reported(self, data_csv, capsys):
        assert main(["test", "--input", str(data_csv), "--k", "50",
                     "--tau-prime", "0.999"]) == 0
        doc = json.loads(capsys.readouterr().out)
        kinds = [r["kind"] for r in doc["results"]]
        assert kinds == ["laws", "qb", "quantile", "extremal_coefficient"]
        assert all(r["status"] == "ok" for r in doc["results"])

    def test_trivariate_adds_pairs(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "tri.csv", d=3)
        assert main(["test", "--input", str(csv), "--k", "50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tags = {tuple(r["margins"]) for r in doc["results"]}
        assert ("X1", "X2", "X3") in tags
        assert ("X1", "X2") in tags and ("X2", "X3") in tags

    def test_univariate_rejected(self, tmp_path, capsys):
        csv = write_sample_csv(tmp_path / "one.csv", d=1)
        assert main(["test", "--input", str(csv), "--k", "50"]) == 1
        assert capsys.readouterr() == (
            "", "error: equality tests require at least two margins\n"
        )

    def test_overflowing_extrapolation_fails_its_rows(self, tmp_path, capsys):
        # The rows that read the overflowing factor fail in-band, the
        # Weissman row on its infinite extrapolated quantile; the others
        # survive.
        csv = write_overflow_panel(tmp_path / "huge.csv")
        assert main(["test", "--input", str(csv), "--k", "50"]) == 2
        captured = capsys.readouterr()
        rows = json.loads(captured.out)["results"]
        assert [(r["kind"], r["status"]) for r in rows] == [
            ("laws", "failed"), ("qb", "failed"),
            ("quantile", "failed"), ("extremal_coefficient", "ok"),
        ]
        assert rows[2]["error"] == "quantile test requires finite extrapolated estimates"
        assert captured.err == ""

    def test_laws_row_fails_with_the_laws_message(self, tmp_path, capsys):
        # gamma-hat ~ 690 fails both the LAWS check (>= 1/2) and the QB one
        # (>= 1) that the LAWS shift reads through the QB bias: the LAWS row
        # of test names the LAWS check, as region --method laws does.
        csv = write_overflow_panel(tmp_path / "huge.csv")
        message = "tail too heavy for LAWS variance (Hill estimate >= 1/2) -- use QB"
        assert main(["test", "--input", str(csv), "--k", "50"]) == 2
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [r["error"] for r in rows if r["kind"] == "laws"] == [message]
        assert main(["region", "--input", str(csv), "--k", "50", "--method", "laws"]) == 1
        assert capsys.readouterr().err == f"error: all requested regions failed: {message}\n"


def write_overflow_panel(path):
    """Column a: 450 values near 1e-150 and 50 near 1e150, so gamma-hat is
    about 690 at k=50 and its extrapolation factor overflows a float."""
    rng = np.random.default_rng(3)
    a = np.concatenate([1e-150 * (1.0 + rng.random(450)), 1e150 * (1.0 + rng.random(50))])
    rng.shuffle(a)
    b = 1.0 + rng.pareto(3.0, 500)
    path.write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(a.tolist(), b.tolist())))
    return path


def write_failing_panel(path, d: int):
    """A dependent Pareto panel (n=300, rounded to 2 decimals, so with ties)
    whose column X1 is negative (a Hill threshold <= 0), X2 a copy of X0 (a
    singular pair) and the last column heavy (gamma-hat >= 1/2)."""
    rng = np.random.default_rng(d)
    u = 0.5 * rng.random((300, d)) + 0.5 / (1.0 + np.exp(-rng.standard_normal((300, 1))))
    x = (1.0 - u) ** -0.25
    x[:, 1] -= 100.0
    x[:, 2] = x[:, 0]
    x[:, -1] = (1.0 - rng.random(300)) ** -0.9
    x = np.round(x, 2)
    lines = [",".join(f"X{j}" for j in range(d))]
    lines += [",".join(format(v, ".17g") for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ingest_csv(path)


def same_outcome(row: dict, head: tuple, call) -> None:
    """A row of the CLI's JSON, past its keys head, is call()'s JSON fields
    to the bit (compared as JSON text), or its failure with the message of
    the error that call() raises."""
    try:
        want = call()
    except TailjointError as exc:
        assert row["status"] == "failed" and row["error"] == str(exc)
    else:
        assert row["status"] == "ok"
        got = {key: v for key, v in row.items() if key not in head + ("status",)}
        want = want if isinstance(want, dict) else want.to_json_dict()
        assert json.dumps(got) == json.dumps(want)


class TestGroupsAsOffsetStacks:
    """test and region run the pairs of a panel as stacks of one column
    offset each, with their fits gathered from the panel's one fit; every
    row is the single-group library call on sample.select(group), to the
    bit, or fails as it does."""

    K, TAU_PRIME, ALPHA = 30, 0.999, 0.05

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize(
        "flags",
        [[], ["--intermediate"], ["--naive"], ["--intermediate", "--naive"],
         ["--method", "laws"], ["--method", "qb"]],
    )
    def test_region_rows_are_single_pair_regions(self, tmp_path, capsys, d, flags):
        sample = write_failing_panel(tmp_path / "x.csv", d)
        tau_prime = None if "--intermediate" in flags else self.TAU_PRIME
        levels = [] if tau_prime is None else ["--tau-prime", str(tau_prime)]
        assert main(["region", "--input", str(tmp_path / "x.csv"), "--k", str(self.K),
                     *levels, *flags]) == 2
        docs = json.loads(capsys.readouterr().out)
        tau = tau_from_k(sample.n, self.K)
        methods = [flags[1]] if "--method" in flags else ["laws", "qb"]
        pairs = list(itertools.combinations(range(d), 2))
        assert [(tuple(doc["margins"]), doc["method"]) for doc in docs] == [
            ((f"X{j}", f"X{ell}"), m) for j, ell in pairs for m in methods
        ]
        for doc in docs:
            sub = sample.select([int(label[1:]) for label in doc["margins"]])
            same_outcome(doc, ("schema_version", "command", "margins", "method"), lambda: (
                confidence_region(sub, tau, tau_prime, self.ALPHA, doc["method"],
                                  "--naive" in flags)
            ))
        assert "ok" in {doc["status"] for doc in docs}
        errors = {doc.get("error") for doc in docs}
        assert "Hill requires positive tail: threshold order statistic <= 0" in errors

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_test_rows_are_single_group_tests(self, tmp_path, capsys, d):
        sample = write_failing_panel(tmp_path / "x.csv", d)
        assert main(["test", "--input", str(tmp_path / "x.csv"), "--k", str(self.K),
                     "--tau-prime", str(self.TAU_PRIME)]) == 2
        rows = json.loads(capsys.readouterr().out)["results"]
        tau = tau_from_k(sample.n, self.K)
        groups = [tuple(range(d))] + list(itertools.combinations(range(d), 2))
        kinds = ["laws", "qb", "quantile"]
        assert [(tuple(r["margins"]), r["kind"]) for r in rows] == [
            (tuple(f"X{j}" for j in g), kind)
            for g in groups for kind in kinds + ["extremal_coefficient"] * (len(g) == 2)
        ]
        for row in rows:
            sub = sample.select([int(label[1:]) for label in row["margins"]])
            if row["kind"] == "extremal_coefficient":
                same_outcome(row, ("margins", "kind"), lambda: {
                    "statistic": extremal_coefficient(sub, tau, 0, 1)
                })
            else:
                # A test's JSON fields start with its kind.
                same_outcome(row, ("margins",), lambda: equality_test(
                    sub, tau, self.TAU_PRIME, row["kind"], self.ALPHA
                ))
        errors = {r.get("error") for r in rows}
        assert "Hill requires positive tail: threshold order statistic <= 0" in errors
        assert "singular test matrix" in errors

    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("tau_prime", [None, 0.999])
    def test_failures_keep_their_class(self, tmp_path, naive, tau_prime):
        sample = write_failing_panel(tmp_path / "x.csv", 5)
        tau = tau_from_k(sample.n, self.K)
        groups = _by_group(sample, tau, tau_prime, (2,), ("laws", "qb"), naive,
                           partial(_regions, alpha=self.ALPHA))
        for pair, regions in groups.items():
            for method, region in regions.items():
                assert_same_outcome(
                    region if isinstance(region, TailjointError) else region.to_json_dict(),
                    lambda: confidence_region(
                        sample.select(pair), tau, tau_prime, self.ALPHA, method, naive
                    ).to_json_dict(),
                )

    def test_level_error_fails_every_row(self, tmp_path, capsys):
        write_failing_panel(tmp_path / "x.csv", 4)
        argv = ["--input", str(tmp_path / "x.csv"), "--k", str(self.K), "--tau-prime", "0.5"]
        assert main(["region", *argv]) == 1
        assert capsys.readouterr().err == (
            "error: all requested regions failed: levels must satisfy 0 < tau < "
            "tau_prime < 1, got tau=0.9, tau_prime=0.5\n"
        )
        # The extremal coefficients need no extreme level.
        assert main(["test", *argv]) == 2
        rows = json.loads(capsys.readouterr().out)["results"]
        assert {r["status"] for r in rows if r["kind"] == "extremal_coefficient"} == {"ok"}
        assert {r.get("error") for r in rows if r["kind"] != "extremal_coefficient"} == {
            "levels must satisfy 0 < tau < tau_prime < 1, got tau=0.9, tau_prime=0.5"
        }


def scan_rows(text: str) -> list:
    """The (k, trace, status) rows of a trace_scan.csv text, read by
    csv.reader under its header; every row has exactly three cells."""
    header, *rows = csv.reader(text.splitlines())
    assert header == ["k", "trace", "status"]
    assert all(len(row) == 3 for row in rows), rows
    return rows


class TestTraceScan:
    def test_scan_range(self, tmp_path, data_csv):
        out = tmp_path / "out"
        assert main(["trace-scan", "--input", str(data_csv), "--k-min", "20",
                     "--k-max", "40", "--tau-prime", "0.999",
                     "--out", str(out)]) == 0
        lines = (out / "trace_scan.csv").read_text().splitlines()
        assert lines[0] == "k,trace,status"
        assert len(lines) == 22
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_single_k_is_its_row_of_a_range(self, data_csv, capsys):
        scans = []
        for flags in (["--k", "30"], ["--k-min", "20", "--k-max", "40"]):
            assert main(["trace-scan", "--input", str(data_csv), "--tau-prime", "0.999",
                         *flags]) == 0
            scans.append(scan_rows(capsys.readouterr().out))
        assert scans[0] == [scans[1][10]] and scans[0][0][0] == "30"

    def test_partial_failures_exit_two(self, tmp_path, capsys):
        # Tail index 0.5: the per-k Hill estimates straddle the 1/2 threshold,
        # so some k values fail while others succeed.
        path = write_sample_csv(tmp_path / "heavy.csv", n=300, gamma=0.5, seed=2)
        code = main(["trace-scan", "--input", str(path), "--k-min", "5",
                     "--k-max", "80"])
        assert code == 2
        statuses = [status for _, _, status in scan_rows(capsys.readouterr().out)]
        assert any(s == "ok" for s in statuses)
        assert any(s.startswith("failed:") for s in statuses)

    @staticmethod
    def statuses_match_single_levels(path, rows, k_min, tau_prime) -> list:
        """Check each scan row against estimate_covariance for "laws" at its
        k: the trace exactly, or an empty trace cell and the text of the
        exception it raises, but for the joint matrix's PSD check, which the
        scan leaves out; returns the rows' statuses."""
        sample = ingest_csv(path)
        statuses = []
        for k, (k_text, trace, status) in enumerate(rows, k_min):
            assert int(k_text) == k
            statuses.append(status)
            try:
                cov = estimate_covariance(sample, tau_from_k(sample.n, k), tau_prime, "laws")
            except NotPositiveSemidefiniteError:
                assert status == "ok"
                continue
            except TailjointError as exc:
                assert (trace, status) == ("", f"failed: {exc}")
                continue
            assert status == "ok"
            assert float(trace) == float(np.trace(cov.entries))
        return statuses

    def test_rows_match_covariance_trace(self, tmp_path, capsys):
        # Heavy tail: some k fail in-band, and their message is the one the
        # per-k covariance raises.
        path = write_sample_csv(tmp_path / "heavy.csv", n=300, gamma=0.5, seed=2)
        assert main(["trace-scan", "--input", str(path), "--k-min", "5",
                     "--k-max", "80"]) == 2
        rows = scan_rows(capsys.readouterr().out)
        statuses = self.statuses_match_single_levels(path, rows, 5, 1.0 - 1.0 / 300)
        failed = sum(s != "ok" for s in statuses)
        assert len(rows) == 76 and 0 < failed < 76

    def test_failed_levels_between_ok_ones_keep_their_own_failure(self, tmp_path, capsys):
        # The failed levels of the heavy panel sit between ok ones, and each
        # keeps its own first failure.
        path = write_sample_csv(tmp_path / "heavy.csv", n=300, gamma=0.5, seed=2)
        assert main(["trace-scan", "--input", str(path), "--k-min", "5",
                     "--k-max", "80"]) == 2
        rows = scan_rows(capsys.readouterr().out)
        statuses = self.statuses_match_single_levels(path, rows, 5, 1.0 - 1.0 / 300)
        ok = [i for i, s in enumerate(statuses) if s == "ok"]
        assert any(s != "ok" for s in statuses[ok[0] : ok[-1]])

    def test_levels_rejected_before_the_fit(self, tmp_path, capsys):
        # At tau' = 0.99 and n = 300, k = 2 and 3 give tau >= tau': those
        # rows fail with the LevelError of TailLevelPair, the rest run.
        # Their messages hold commas, so the status cells are quoted.
        path = write_sample_csv(tmp_path / "heavy.csv", n=300, gamma=0.5, seed=2)
        assert main(["trace-scan", "--input", str(path), "--tau-prime", "0.99",
                     "--k-min", "2", "--k-max", "80"]) == 2
        rows = scan_rows(capsys.readouterr().out)
        assert "," in rows[0][2]
        statuses = self.statuses_match_single_levels(path, rows, 2, 0.99)
        assert all(s.startswith("failed: levels must satisfy") for s in statuses[:2])
        assert not statuses[2].startswith("failed: levels must satisfy")
        assert "ok" in statuses

    def test_constant_column_fails_each_level_on_its_own(self, tmp_path, capsys):
        # A constant column fails every level with its own error, and the
        # command names the first.
        path = tmp_path / "constant.csv"
        x = (1.0 - np.random.default_rng(0).random(50)) ** -0.3
        lines = ["a,b"] + [f"{v:.17g},7.3" for v in x]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["trace-scan", "--input", str(path), "--k-min", "2",
                     "--k-max", "49"]) == 1
        sample = ingest_csv(path)
        with pytest.raises(TailjointError) as first:
            estimate_covariance(sample, tau_from_k(50, 2), 0.99, "laws")
        assert capsys.readouterr().err == (
            f"error: trace scan failed at every k: {first.value}\n"
        )

    def test_every_level_rejected_before_the_fit(self, tmp_path, capsys):
        # At tau' = 0.99 and n = 300 no k in 2..3 gives tau < tau': no
        # level reaches the scan, and every row names the LevelError.
        csv = write_sample_csv(tmp_path / "heavy.csv", n=300, gamma=0.5, seed=2)
        assert main(["trace-scan", "--input", str(csv), "--tau-prime", "0.99",
                     "--k-min", "2", "--k-max", "3"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: trace scan failed at every k: levels must satisfy"
        )

    def test_one_eigh_per_scan_and_one_fit_per_level(self, tmp_path, data_csv, monkeypatch):
        fits = count_fits(monkeypatch)
        eighs = count_eighs(monkeypatch)
        for k_max in (22, 120):
            fits.clear()
            eighs.clear()
            assert main(["trace-scan", "--input", str(data_csv), "--k-min", "20",
                         "--k-max", str(k_max), "--out", str(tmp_path / "out")]) == 0
            assert fits == [tau_from_k(500, k) for k in range(20, k_max + 1)]
            assert eighs == [k_max - 19]

    def scan_call_counts(self, tmp_path, data_csv, calls) -> list:
        """len(calls) after a trace-scan over k=20..22 and over k=20..120."""
        counts = []
        for k_max in (22, 120):
            calls.clear()
            assert main(["trace-scan", "--input", str(data_csv), "--k-min", "20",
                         "--k-max", str(k_max), "--out", str(tmp_path / "out")]) == 0
            counts.append(len(calls))
        return counts

    def test_sorts_do_not_grow_with_k_range(self, tmp_path, data_csv, monkeypatch):
        calls = count_numpy_calls(monkeypatch, "sort", "argsort")
        counts = self.scan_call_counts(tmp_path, data_csv, calls)
        assert counts[0] == counts[1] <= 2

    def test_argsorts_only_its_levels(self, tmp_path, data_csv, monkeypatch):
        # The panel's sorted columns come from np.sort, with no row order:
        # the one argsort is the fit's, of the 101 levels.
        calls = count_sorts(monkeypatch)
        assert main(["trace-scan", "--input", str(data_csv), "--k-min", "20",
                     "--k-max", "120", "--out", str(tmp_path / "out")]) == 0
        assert calls == [((101,), "stable")]

    def test_builds_no_ranks(self, tmp_path, data_csv, monkeypatch):
        calls = count_rank_builds(monkeypatch)
        assert main(["trace-scan", "--input", str(data_csv), "--k-min", "20",
                     "--k-max", "120", "--out", str(tmp_path / "out")]) == 0
        assert calls == []

    def test_searches_and_cumsums_do_not_grow_with_k_range(
        self, tmp_path, data_csv, monkeypatch
    ):
        calls = count_numpy_calls(monkeypatch, "searchsorted", "cumsum")
        counts = self.scan_call_counts(tmp_path, data_csv, calls)
        assert counts[0] == counts[1] > 0

    def test_every_k_failing_names_the_reason_once(self, tmp_path, capsys):
        # Tail index 2/3: every Hill estimate in k=20..25 is above 1/2.
        csv = write_sample_csv(tmp_path / "heavier.csv", gamma=0.67)
        assert main(["trace-scan", "--input", str(csv), "--k-min", "20",
                     "--k-max", "25"]) == 1
        assert capsys.readouterr().err == (
            "error: trace scan failed at every k: tail too heavy for LAWS "
            "variance (Hill estimate >= 1/2) -- use QB\n"
        )

    def test_requires_k_arguments(self, data_csv, capsys):
        assert main(["trace-scan", "--input", str(data_csv)]) == 1
        assert main(["trace-scan", "--input", str(data_csv), "--k", "50",
                     "--k-min", "10", "--k-max", "20"]) == 1
        capsys.readouterr()


SIMULATE_FAILING_EVERY_REPLICATION = {
    "tau_prime_below_tau": ["--experiment", "power", "--n", "200", "--k", "20",
                            "--tau-prime", "0.5"],
    "coverage_tau_prime_below_tau": ["--experiment", "coverage", "--n", "200",
                                     "--k", "20", "--tau-prime", "0.2"],
    "n_3": ["--experiment", "mse", "--n", "3", "--tau", "0.5"],
}


class TestSimulate:
    def test_mse_rerun_byte_identical(self, tmp_path, capsys):
        outs, streams = [], []
        for tag in ("first", "second"):
            out = tmp_path / tag
            assert main(["simulate", "--model", "clayton_frechet",
                         "--experiment", "mse", "--n", "200", "--k", "20",
                         "--reps", "10", "--seed", "3", "--out", str(out)]) == 0
            outs.append(out)
            streams.append(capsys.readouterr())
        assert streams[0] == streams[1]
        for name in ("simulate.json", "simulate.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        doc = json.loads((outs[0] / "simulate.json").read_text())
        header, row = csv.reader((outs[0] / "simulate.csv").read_text().splitlines())
        assert header == sorted(doc[0]) and len(row) == len(header)
        assert set(doc[0]) == {
            "schema_version", "command", "naive", "experiment", "model", "n", "d",
            "k", "tau", "tau_prime", "replications", "master_seed", "failures",
            "rmse_pct_laws", "rmse_pct_qb",
        }
        assert doc[0]["experiment"] == "mse"

    def test_null_field_is_an_empty_cell(self, tmp_path, capsys):
        # The MSE run has no extreme level: tau_prime is null in the JSON,
        # and its csv cell is empty, as a field missing from a row is.
        assert main(["simulate", "--model", "clayton_frechet", "--experiment", "mse",
                     "--n", "200", "--k", "20", "--reps", "3", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "simulate.json").read_text())[0]
        header, row = csv.reader((tmp_path / "simulate.csv").read_text().splitlines())
        cells = dict(zip(header, row))
        assert doc["tau_prime"] is None and cells["tau_prime"] == ""
        assert "None" not in row

    @pytest.mark.parametrize(
        "flags",
        SIMULATE_FAILING_EVERY_REPLICATION.values(),
        ids=SIMULATE_FAILING_EVERY_REPLICATION.keys(),
    )
    def test_configuration_that_fails_every_replication_exits_1(self, flags, capsys):
        assert main(["simulate", "--model", "clayton_frechet", "--reps", "3",
                     "--seed", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_negative_seed_exits_1(self, capsys):
        assert main(["simulate", "--model", "clayton_frechet", "--n", "200",
                     "--k", "20", "--reps", "3", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seed must be an integer in [0, 2**64), got -1\n"
        )

    def test_removed_thread_pool_option_rejected(self, tmp_path, capsys):
        args = ["simulate", "--model", "clayton_frechet", "--n", "200", "--k", "20",
                "--reps", "3"]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--workers", "2"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        capsys.readouterr()
        assert main([*args, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config key 'workers' is not a recognized flag" in err

    def test_coverage_both_methods(self, capsys):
        assert main(["simulate", "--model", "clayton_frechet", "--experiment",
                     "coverage", "--n", "300", "--k", "30", "--reps", "5",
                     "--seed", "2"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2
        assert "noncoverage_pct_laws" in docs[0]
        assert "noncoverage_pct_qb" in docs[1]

    def test_interval_both_methods(self, capsys):
        assert main(["simulate", "--model", "clayton_frechet", "--experiment",
                     "interval", "--n", "300", "--k", "30", "--reps", "3",
                     "--seed", "2"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["experiment"] for doc in docs] == ["interval_coverage"] * 2
        assert docs[0]["tau_prime"] == 1.0 - 1.0 / 300
        assert "noncoverage_pct_laws" in docs[0]
        assert "noncoverage_pct_qb" in docs[1]

    @pytest.mark.parametrize("flags, flag", [
        (["--n", "200"], "--model"), (["--model", "clayton_frechet"], "--n"),
    ])
    def test_model_and_n_required(self, capsys, flags, flag):
        assert main(["simulate", *flags, "--k", "20", "--reps", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} is required\n")

    def test_mse_rejects_flags_it_does_not_read(self, capsys):
        assert main(["simulate", "--model", "clayton_frechet", "--experiment", "mse",
                     "--n", "200", "--k", "20", "--reps", "2", "--method", "bogus",
                     "--naive", "--tau-prime", "0.3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --experiment mse does not read --method, --naive, --tau-prime\n"
        )

    def test_power_rejects_naive(self, capsys):
        # The power experiment runs the adjusted tests only.
        assert main(["simulate", "--model", "clayton_frechet", "--experiment", "power",
                     "--n", "200", "--k", "20", "--reps", "2", "--naive"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --experiment power does not read --naive\n"

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("clayton_frechet:d=abc", "d"),
            ("clayton_frechet:d=2.5", "d"),
            ("clayton_frechet:gamma=x", "gamma"),
            ("clayton_frechet:gamma=0.3/y", "gamma"),
            ("clayton_frechet:theta=ten", "theta"),
            ("gumbel_frechet:vartheta=?", "vartheta"),
        ],
    )
    def test_non_numeric_model_parameter_exits_1(self, spec, key, capsys):
        assert main(["simulate", "--model", spec, "--n", "200", "--k", "20",
                     "--reps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: model parameter {key}: expected ")

    def test_unknown_model_and_experiment(self, capsys):
        assert main(["simulate", "--model", "bogus", "--n", "200",
                     "--k", "20"]) == 1
        assert main(["simulate", "--model", "clayton_frechet", "--n", "200",
                     "--k", "20", "--experiment", "bogus"]) == 1
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# levels\nk = 50\nalpha = 0.1\ntau-prime = 0.999\n")
        out_cfg, out_flags = tmp_path / "cfg", tmp_path / "flags"
        assert main(["estimate", "--input", str(data_csv), "--config", str(cfg),
                     "--out", str(out_cfg)]) == 0
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--alpha", "0.1", "--tau-prime", "0.999",
                     "--out", str(out_flags)]) == 0
        assert (out_cfg / "estimate.json").read_bytes() == (
            out_flags / "estimate.json"
        ).read_bytes()

    def test_flags_override_config(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 50\n")
        assert main(["estimate", "--input", str(data_csv), "--config", str(cfg),
                     "--k", "25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 25

    def test_config_errors(self, tmp_path, data_csv, capsys):
        bad_line = tmp_path / "bad.cfg"
        bad_line.write_text("just-a-word\n")
        assert main(["estimate", "--input", str(data_csv),
                     "--config", str(bad_line)]) == 1
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("k = 50\nbanana = 7\n")
        assert main(["estimate", "--input", str(data_csv),
                     "--config", str(unknown)]) == 1
        err = capsys.readouterr().err
        assert "expected key=value" in err
        assert "banana" in err

    @pytest.mark.parametrize("key", ["command", "run", "config"])
    def test_config_key_that_is_not_a_flag_exits_1(self, tmp_path, data_csv, key, capsys):
        # Attributes of the parsed arguments that are not flags of the
        # command, and --config itself: a nested file is never read.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {tmp_path / 'nested.cfg'}\n")
        (tmp_path / "nested.cfg").write_text("k = 40\n")
        assert main(["estimate", "--input", str(data_csv), "--k", "30",
                     "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key!r} is not a recognized flag" in captured.err

    @pytest.mark.parametrize("line", ["k = abc", "k = 5.5", "alpha = high"])
    def test_config_value_that_does_not_parse_exits_1(
        self, tmp_path, data_csv, line, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["estimate", "--input", str(data_csv), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key, value = (part.strip() for part in line.split("="))
        assert captured.err.startswith(f"error: config key {key}: expected ")
        assert repr(value) in captured.err

    @pytest.mark.parametrize("value, naive", [
        ("yes", True), ("True", True), ("1", True), ("false", False), ("NO", False),
        ("0", False),
    ])
    def test_config_boolean_and_text_values(self, tmp_path, data_csv, capsys, value, naive):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"naive = {value}\nmethod = qb\n")
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["naive"] is naive
        assert "xi_star_qb" in doc["margins"][0] and "xi_star_laws" not in doc["margins"][0]

    def test_config_boolean_that_does_not_parse_exits_1(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("naive = maybe\n")
        assert main(["estimate", "--input", str(data_csv), "--k", "50",
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", "error: config key naive: expected a boolean, got 'maybe'\n"
        )


def unread_flag_base(command, data_csv):
    if command == "trace-scan":
        return ["trace-scan", "--input", str(data_csv), "--k", "50"]
    return ["simulate", "--model", "clayton_frechet", "--n", "200", "--k", "20",
            "--reps", "3"]


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("trace-scan", ["--tau", "0.3"]),
            ("trace-scan", ["--alpha", "7"]),
            ("simulate", ["--input", "nonexistent.csv"]),
            ("simulate", ["--date-column"]),
        ],
        ids=["trace-scan-tau", "trace-scan-alpha", "simulate-input", "simulate-date-column"],
    )
    def test_flag_the_command_does_not_read_exits_2(self, command, flags, data_csv):
        with pytest.raises(SystemExit) as exc:
            main([*unread_flag_base(command, data_csv), *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, key, line",
        [("trace-scan", "tau", "tau = 0.9"), ("simulate", "input", "input = x.csv")],
    )
    def test_config_key_the_command_does_not_read_exits_1(
        self, tmp_path, data_csv, command, key, line, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        args = [*unread_flag_base(command, data_csv), "--config", str(cfg)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key!r} is not a recognized flag" in captured.err


class TestRanksPerCommand:
    @pytest.mark.parametrize(
        "argv", [["estimate"], ["test"], ["region"], ["region", "--intermediate"]]
    )
    def test_no_ranks_built(self, tmp_path, monkeypatch, capsys, argv):
        # The stacks of estimate, region and test read each margin's row
        # order and sorted values only: no rank array, and no
        # take_along_axis or put_along_axis.
        data = write_sample_csv(tmp_path / "d5.csv", n=1000, d=5, gamma=0.25)
        calls = count_rank_builds(monkeypatch)
        assert main([argv[0], "--input", str(data), "--k", "100", *argv[1:]]) == 0
        capsys.readouterr()
        assert calls == []


class TestFitsPerCommand:
    @pytest.mark.parametrize("command, fits", [("estimate", 1), ("test", 1), ("region", 1)])
    def test_each_panel_fitted_once(self, tmp_path, monkeypatch, capsys, command, fits):
        # d = 5: every command fits the panel once; test and region gather
        # the fits of its 10 pairs from it, for every method and kind.
        data = write_sample_csv(tmp_path / "d5.csv", n=1000, d=5, gamma=0.25)
        counted = count_fits(monkeypatch)
        assert main([command, "--input", str(data), "--k", "100"]) == 0
        capsys.readouterr()
        assert len(counted) == fits


class TestIngest:
    def test_weekly_returns(self, tmp_path, capsys):
        prices = write_price_csv(tmp_path / "prices.csv")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(prices), "--out", str(out)]) == 0
        assert "wrote returns.csv" in capsys.readouterr().out
        lines = (out / "returns.csv").read_text().splitlines()
        assert lines[0] == "date,A,B"
        assert len(lines) == 8  # 8 weeks of prices -> 7 weekly returns

    def test_no_returns_roundtrip(self, tmp_path, data_csv, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(data_csv), "--no-returns",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        ingested = out / "ingested.csv"
        original = np.loadtxt(data_csv, delimiter=",", skiprows=1)
        copied = np.loadtxt(ingested, delimiter=",", skiprows=1)
        assert np.array_equal(original, copied)

    def test_requires_out(self, data_csv, capsys):
        assert main(["ingest", "--input", str(data_csv)]) == 1
        capsys.readouterr()

    def test_requires_input(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "error: --input is required\n")


class TestModelSpec:
    def test_defaults(self):
        model = parse_model_spec("clayton_frechet")
        assert model.kind == "clayton_frechet" and model.d == 2
        assert model.gammas == (1.0 / 3.0, 1.0 / 3.0)
        assert model.theta == 10.0

    def test_univariate_default_dimension(self):
        model = parse_model_spec("univariate_pareto")
        assert model.d == 1

    def test_full_spec(self):
        model = parse_model_spec("gumbel_frechet:d=3,gamma=0.25,vartheta=2.5")
        assert model.d == 3
        assert model.gammas == (0.25, 0.25, 0.25)
        assert model.vartheta == 2.5

    def test_per_margin_gammas(self):
        model = parse_model_spec("clayton_frechet:gamma=0.3/0.4")
        assert model.gammas == (0.3, 0.4)

    def test_errors(self):
        with pytest.raises(DomainError):
            parse_model_spec("clayton_frechet:badness")
        with pytest.raises(DomainError):
            parse_model_spec("clayton_frechet:spam=1")
        with pytest.raises(DomainError):
            parse_model_spec("not_a_model")


# Fields of the CLI outputs that are c times their value when the data are
# multiplied by c, and the log-scale common mean of a test, which moves by
# log c; every other number is unchanged.
_SCALED = {"q_hat", "xi_laws", "xi_qb", "xi_star_laws", "xi_star_qb", "lower", "upper",
           "center"}


def assert_equivariant(got, want, c: float, key=None) -> None:
    """got, read from the outputs for data multiplied by c, against want,
    from the unscaled data, to criterion 10's tolerance of 1e-10."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_equivariant(got[k], want[k], c, k)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_equivariant(g, w, c, key)
    elif isinstance(want, float) and key in _SCALED:
        assert got == pytest.approx(c * want, rel=1e-10, abs=0.0), key
    elif isinstance(want, float) and key == "common_mean":
        assert got == pytest.approx(want + math.log(c), rel=1e-10, abs=1e-10), key
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=0.0, abs=1e-10), key
    else:
        assert got == want, key


class TestScaleEquivariance:
    """On a Pareto panel (n=60, k=15) multiplied by 1e-300 or 1e300, where
    a LAWS Gram product of the residuals would underflow or overflow, every
    command succeeds without a floating-point warning, and its outputs are
    those of the unscaled panel, scaled as the data are."""

    COMMANDS = (
        ["estimate", "--k", "15"],
        ["region", "--k", "15"],
        ["test", "--k", "15"],
        ["trace-scan", "--k-min", "4", "--k-max", "59"],
    )

    @staticmethod
    def outputs(tmp_path, c: float) -> dict:
        csv = write_sample_csv(tmp_path / f"x{c}.csv", n=60, scale=c)
        out = tmp_path / f"out{c}"
        for argv in TestScaleEquivariance.COMMANDS:
            assert main(argv + ["--input", str(csv), "--out", str(out)]) == 0
        docs = {}
        for path in sorted(out.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                docs[path.name] = json.loads(text)
            else:
                rows = [line.split(",") for line in text.splitlines()]
                docs[path.name] = [rows[0]] + [[float(x) for x in r[:2]] for r in rows[1:]]
        return docs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_outputs_scale_with_the_data(self, tmp_path, c):
        want, got = self.outputs(tmp_path, 1.0), self.outputs(tmp_path, c)
        assert got.keys() == want.keys() and len(want) == 6
        for name in want:
            if name.startswith("boundary_"):
                assert got[name][0] == want[name][0]
                assert np.allclose(got[name][1:], c * np.array(want[name][1:]),
                                   rtol=1e-10, atol=0.0)
            elif name == "trace_scan.csv":
                assert np.allclose(got[name][1:], want[name][1:], rtol=0.0, atol=1e-10)
            else:
                assert_equivariant(got[name], want[name], c)


def edge_panels() -> dict:
    """n = 100 panels at the edges of the float range, with ties and a
    constant column, against a Pareto(4) column B; and the heavy panel of
    TestTraceScan, whose scan over k = 5..80 fails at some levels."""
    b = 1.0 + np.random.default_rng(7).pareto(4.0, 100)
    c = 1.0 + np.random.default_rng(8).pareto(3.0, 100)
    return {
        "overflow": (1.7e308 * np.random.default_rng(2).random(100), b),
        "subnormal": (5e-324 * np.arange(1.0, 101.0), b),
        "1e300": (1e300 * b, 1e300 * c),
        "1e-300": (1e-300 * b, 1e-300 * c),
        "tied": (np.round(b, 1), c),
        "constant": (np.full(100, 2.0), b, c),
        "heavy": tuple((1.0 - np.random.default_rng(2).random((300, 2))).T ** -0.5),
    }


EDGE_RUNS = (
    ["estimate", "--k", "10"],
    ["estimate", "--tau", "0.9", "--tau-prime", "0.9999"],
    ["region", "--k", "10"],
    ["test", "--k", "10"],
    ["test", "--tau", "0.9", "--tau-prime", "0.999"],
    ["test", "--tau", "0.9", "--tau-prime", "0.9999"],
    ["trace-scan", "--k-min", "5", "--k-max", "30"],
    ["trace-scan", "--k-min", "5", "--k-max", "80"],
)


def finite_cells(path: Path) -> bool:
    """Whether every number in an output file is finite: JSON constants
    NaN and Infinity, or a CSV cell that reads as a non-finite float."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            json.loads(text, parse_constant=lambda name: 1 / 0)
        except ZeroDivisionError:
            return False
        return True
    for row in csv.reader(text.splitlines()):
        for cell in row:
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                pass
    return True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("panel", edge_panels())
def test_edge_panels_exit_cleanly_with_finite_outputs(tmp_path, panel):
    # Every command exits 0, 1 or 2, emits no warning (an error here) and
    # writes no non-finite number: what cannot be computed fails in-band.
    columns = edge_panels()[panel]
    data = tmp_path / "data.csv"
    emit_csv(MultivariateSample(np.column_stack(columns), tuple("ABC"[: len(columns)])), data)
    for i, argv in enumerate(EDGE_RUNS):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--input", str(data), "--out", str(out)]) in (0, 1, 2), argv
        for path in sorted(out.iterdir()) if out.exists() else []:
            assert finite_cells(path), (argv, path.name)


# Most draws take a k at which the commands can run, and a trace-scan range
# that can mix ok and failed levels; the values of k that fail every
# command outright are drawn once in four, and the last columns that do
# (constant, all negative) once in seven.
K_KINDS = ("valid",) * 3 + ("edge",)
LAST_COLUMNS = ("pareto", "heavy", "light", "tied", "copy", "shifted") * 2 + (
    "constant", "negative",
)
SCALES = (1.0,) * 4 + (1e150, 1e-150, 1e300, 1e-300)


@st.composite
def cli_runs(draw):
    """An n x d panel (n = 5..400, d = 1..5) as CSV text, and the command
    lines of estimate, region, test and trace-scan at one k: mostly a k in
    [2, n-1], with a trace-scan from k = 2 to it, and otherwise a k in
    {0, 1, n} (trace-scan from min(k, 2) to k).  The columns are Pareto
    with tail indices up to 1/2 but for the last, which may instead have a
    tail index up to 2, or be light-tailed, rounded (ties), c times the
    first column, shifted to hold negatives, or, less often, constant or
    all negative; the panel is scaled by 1, or less often by 1e+-150 or
    1e+-300."""
    n, d = draw(st.integers(5, 400)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (1.0 - rng.random((n, d))) ** -np.array([draw(st.floats(0.05, 0.5)) for _ in range(d)])
    last = x[:, -1]
    x[:, -1] = {
        "pareto": last,
        "heavy": last ** draw(st.floats(1.0, 4.0)),
        "light": rng.exponential(size=n),
        "tied": np.round(last, 1),
        "constant": np.full(n, draw(st.sampled_from([0.0, 2.0, -3.0]))),
        "copy": draw(st.sampled_from([1.0, 2.5, -1.0])) * x[:, 0],
        "negative": -last,
        "shifted": last - np.median(last),
    }[draw(st.sampled_from(LAST_COLUMNS))]
    with np.errstate(over="ignore"):  # beyond the float range: ingestion fails
        x *= draw(st.sampled_from(SCALES))
    lines = [",".join(f"X{j}" for j in range(d))]
    lines += [",".join(format(v, ".17g") for v in row) for row in x]
    if draw(st.sampled_from(K_KINDS)) == "valid":
        k = draw(st.integers(2, n - 1))
    else:
        k = draw(st.sampled_from([0, 1, n]))
    argvs = [[command, "--k", str(k)] for command in ("estimate", "region", "test")]
    argvs.append(["trace-scan", "--k-min", str(min(k, 2)), "--k-max", str(k)])
    return "\n".join(lines) + "\n", argvs


@given(cli_runs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_any_panel_exits_cleanly_with_finite_outputs(run):
    # The robustness contract of every command: exit 0, 1 or 2, no
    # warning (an error here), and no non-finite number in any output.
    text, argvs = run
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text, encoding="utf-8")
        for i, argv in enumerate(argvs):
            out = Path(tmp) / f"out{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, "--input", str(data), "--out", str(out)])
            assert code in (0, 1, 2), argv
            for path in sorted(out.iterdir()) if out.exists() else []:
                assert finite_cells(path), (argv, path.name)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tailjoint", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: tailjoint")
    assert "trace-scan" in proc.stdout


NOT_UTF8 = b"a,b\n1,2\n\xff,3\n"
SIMULATE_SMALL = ["--n", "300", "--k", "30", "--reps", "3"]
MALFORMED = {
    "estimate on a csv that is not utf-8": ["estimate", "--input", "{csv}", "--k", "2"],
    "ingest of a csv that is not utf-8": ["ingest", "--input", "{csv}", "--out", "{out}"],
    "a config that is not utf-8": ["estimate", "--config", "{cfg}"],
    "clayton theta nan": ["simulate", "--model", "clayton_frechet:theta=nan", *SIMULATE_SMALL],
    "clayton theta inf": ["simulate", "--model", "clayton_frechet:theta=inf", *SIMULATE_SMALL],
    "gumbel vartheta nan": ["simulate", "--model", "gumbel_frechet:vartheta=nan",
                            "--experiment", "power", *SIMULATE_SMALL],
    "gumbel vartheta inf": ["simulate", "--model", "gumbel_frechet:vartheta=inf",
                            "--experiment", "power", *SIMULATE_SMALL],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_1_with_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "x.csv").write_bytes(NOT_UTF8)
    (tmp_path / "x.cfg").write_bytes(b"input = \xff.csv\n")
    paths = {"csv": tmp_path / "x.csv", "cfg": tmp_path / "x.cfg", "out": tmp_path / "out"}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "{csv}" in argv or "{cfg}" in argv:
        path = paths["csv" if "{csv}" in argv else "cfg"]
        assert lines[0].startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
