"""Command-line interface: commands, exit codes, and output determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hklocal as hk
from conftest import clique_hub_pairs, grid_patch, grid_patch_problem, load_sweep_csv, load_vector_csv
from hklocal.cli import _NOT_FINITE, _json_doc, run
from hklocal.fixtures import (
    dolphins_boundary_path,
    dolphins_graph_path,
    dolphins_subset_path,
)


@pytest.fixture()
def p4_files(tmp_path):
    graph = tmp_path / "p4.edges"
    graph.write_text("0 1\n1 2\n2 3\n")
    subset = tmp_path / "s.txt"
    subset.write_text("1\n2\n")
    boundary = tmp_path / "b.txt"
    boundary.write_text("0 1.0\n")
    return {"graph": str(graph), "subset": str(subset), "boundary": str(boundary)}


def _write_files(tmp_path, graph, subset, boundary):
    """The three input files of a problem, from their texts."""
    files = {"graph": graph, "subset": subset, "boundary": boundary}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


@pytest.fixture()
def cancelling_files(tmp_path):
    # On the path 0-1-2 with S = {1}, b(0) = 1 and b(2) = -1 fold into
    # b1 = 0 exactly: a valid problem whose solution is zero.
    return _write_files(tmp_path, "0 1\n1 2\n", "1\n", "0 1.0\n2 -1.0\n")


def _io_args(files, out=None):
    args = ["--graph", files["graph"], "--subset", files["subset"], "--boundary", files["boundary"]]
    if out:
        args += ["--out", str(out)]
    return args


def _strip_elapsed(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "elapsed_seconds" not in line
    )


class TestValidate:
    def test_valid_exits_zero(self, p4_files, tmp_path, capsys):
        assert run(["validate", *_io_args(p4_files)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True

    def test_violation_exits_two(self, p4_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1.0\n")
        p4_files = dict(p4_files, boundary=str(bad))
        assert run(["validate", *_io_args(p4_files)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False
        assert any("(i)" in v for v in doc["violations"])

    def test_solver_on_invalid_problem_exits_two(self, p4_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1.0\n")
        p4_files = dict(p4_files, boundary=str(bad))
        assert run(["solve-exact", *_io_args(p4_files)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"]

    @pytest.mark.parametrize("command", ["validate", "solve-exact"])
    def test_condition_i_names_file_ids(self, tmp_path, capsys, command):
        # The path 10-11-12-13-14 is compacted to 0..4, so the file's vertex
        # 12 in both S and supp(b) is compact id 2; the message names 12.
        files = _write_files(tmp_path, "10 11\n11 12\n12 13\n13 14\n", "11\n12\n",
                             "10 1\n12 0.5\n")
        violation = "condition (i) violated: supp(b) intersects S at [12]"
        assert run([command, *_io_args(files)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["violations"] == [violation]
        assert "[2]" not in captured.err

    def test_malformed_graph_exits_one(self, p4_files, tmp_path, capsys):
        broken = tmp_path / "broken.edges"
        broken.write_text("0 zero\n")
        p4_files = dict(p4_files, graph=str(broken))
        assert run(["validate", *_io_args(p4_files)]) == 1

    def test_missing_file_exits_one(self, p4_files):
        p4_files = dict(p4_files, graph="/nonexistent/g.edges")
        assert run(["validate", *_io_args(p4_files)]) == 1


class TestSolveCommands:
    def test_solve_exact_values(self, p4_files, capsys):
        assert run(["solve-exact", *_io_args(p4_files)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["x_s"]["1"] == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
        assert doc["x_s"]["2"] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)

    def test_solve_local_report(self, p4_files, capsys):
        assert run(["solve-local", *_io_args(p4_files), "--gamma", "0.2", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format_version"] == 1
        assert list(doc["schedule"]) == ["gamma", "epsilon", "s", "T", "N", "floor_n", "r_outer",
                                         "t_prime", "master_seed", "rate"]
        assert doc["schedule"]["r_outer"] == math.ceil(math.log(2 / 0.2) / 0.04)
        assert set(doc["x_hat"]) == {"1", "2"}
        assert "within_local_bound" in doc["error_bounds"]

    def test_solve_greens_bound_flag(self, p4_files, capsys):
        code = run([
            "solve-greens", *_io_args(p4_files),
            "--gamma", "0.25", "--eps", "0.4", "--seed", "7",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_bounds"]["within_greens_bound"] in (True, False)
        assert doc["instrumentation"]["walk_steps_total"] > 0

    def test_walk_quality_fields(self, p4_files, capsys):
        assert run([
            "solve-greens", *_io_args(p4_files),
            "--gamma", "0.25", "--eps", "0.4", "--seed", "7",
        ]) == 0
        inst = json.loads(capsys.readouterr().out)["instrumentation"]
        assert inst["abort_rate"] == inst["walks_aborted"] / inst["walks_started"]
        assert 0.0 < inst["abort_rate"] < 1.0
        assert inst["mean_walk_length"] == inst["walk_steps_total"] / inst["walks_started"]
        assert run(["solve-local", *_io_args(p4_files), "--gamma", "0.2", "--seed", "4"]) == 0
        inst = json.loads(capsys.readouterr().out)["instrumentation"]
        assert (inst["abort_rate"], inst["mean_walk_length"]) == (0.0, 0.0)

    def test_solve_greens_cancelling_boundary_is_zero(self, cancelling_files, capsys):
        files = cancelling_files
        assert run(["validate", *_io_args(files)]) == 0
        capsys.readouterr()
        assert run(["solve-greens", "--gamma", "0.3", "--eps", "0.5", *_io_args(files)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["x_hat"] == {"1": 0.0}
        assert doc["instrumentation"]["walks_started"] == 0
        assert doc["error_bounds"]["observed_error"] == 0.0

    def test_cancelling_boundary_every_command_gives_zero(self, cancelling_files, capsys):
        # b2 = 0 as well: each command that reads b1 or b2 exits 0 with zeros,
        # hkpr-approx included, which starts no walk.
        io = _io_args(cancelling_files)
        assert run(["validate", *io]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        for argv in (["hkpr-exact", "--t", "2"], ["hkpr-approx", "--t", "2", "--eps", "0.3"]):
            assert run([*argv, *io]) == 0, argv
            assert load_vector_csv(capsys.readouterr().out) == {1: 0.0}, argv
        assert run(["solve-greens", "--gamma", "0.3", "--eps", "0.5", *io]) == 0
        assert json.loads(capsys.readouterr().out)["x_hat"] == {"1": 0.0}

    @pytest.mark.parametrize("value", ["1e308", "1e200"])
    def test_overflowing_result_exits_two(self, tmp_path, capsys, value):
        # On the path 0-1-2 with S = {1} and b = value at both ends, b1 =
        # sqrt(2) value is finite.  At 1e308 b2 = 2 value overflows, and
        # building the problem refuses it before any solve: every command
        # that builds one exits 2, with no numpy warning (the test
        # configuration turns a RuntimeWarning into an error), while
        # validate checks conditions (i)-(iii) only.  At 1e200 the solvers'
        # ||b1|| overflows, with no numpy warning either, and their writers
        # refuse the non-finite result.  Either way stderr is the one error
        # line and nothing goes to stdout.
        files = _write_files(tmp_path, "0 1\n1 2\n", "1\n", f"0 {value}\n2 {value}\n")
        solves = [["solve-local", "--gamma", "0.3"], ["solve-greens", "--gamma", "0.3", "--eps", "0.5"]]
        if value == "1e308":
            assert run(["validate", *_io_args(files)]) == 0
            assert json.loads(capsys.readouterr().out)["valid"] is True
            refused = [["solve-exact"], *solves, ["hkpr-exact", "--t", "1"],
                       ["hkpr-approx", "--t", "1", "--eps", "0.5"], ["sweep-norms", "--points", "3"]]
            message = "the boundary values overflow float64: b1 or b2 is not finite"
        else:
            refused, message = solves, "the result is not finite: a value overflowed float64"
        for argv in refused:
            assert run([*argv, *_io_args(files)]) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv
        if value == "1e200":
            assert run(["solve-exact", *_io_args(files)]) == 0
            x_s = json.loads(capsys.readouterr().out)["x_s"]["1"]
            assert x_s == pytest.approx(math.sqrt(2.0) * float(value), rel=1e-12)

    def test_overflowing_csv_output_exits_two(self, tmp_path, capsys):
        # A star whose six leaves each meet one boundary vertex with b =
        # 1.7e308: the problem builds, as b2 is finite, but ||b2||_1
        # overflows, and the heat kernel pagerank piles more than the
        # largest float64 on the centre.  hkpr-exact's and hkpr-approx's
        # vector writer and sweep-norms' norm check refuse the result.
        leaves = range(1, 7)
        graph = "".join(f"0 {v}\n{v} {v + 6}\n" for v in leaves)
        subset = "".join(f"{v}\n" for v in range(7))
        boundary = "".join(f"{v + 6} 1.7e308\n" for v in leaves)
        files = _write_files(tmp_path, graph, subset, boundary)
        with np.errstate(over="ignore", invalid="ignore"):
            for argv in (["hkpr-exact", "--t", "1"], ["hkpr-approx", "--t", "1", "--eps", "0.5"],
                         ["sweep-norms", "--points", "3"]):
                assert run([*argv, *_io_args(files)]) == 2, argv
                out, err = capsys.readouterr()
                assert out == "", argv
                assert [line for line in err.splitlines() if line.startswith("error:")] == [
                    "error: the result is not finite: a value overflowed float64"], argv

    def test_elapsed_covers_the_whole_command(self, p4_files, capsys, monkeypatch):
        # elapsed_seconds of every solve command times the whole command,
        # the restricted operator the command builds included.
        def slow(*args):
            time.sleep(0.05)
            return hk.restricted_operator(*args)

        monkeypatch.setattr("hklocal.cli.restricted_operator", slow)
        for argv in (["solve-exact"], ["solve-local", "--gamma", "0.2"],
                     ["solve-greens", "--gamma", "0.25", "--eps", "0.4"]):
            assert run([*argv, *_io_args(p4_files)]) == 0
            assert json.loads(capsys.readouterr().out)["elapsed_seconds"] >= 0.05, argv

    def test_eps_below_gamma_exits_two(self, p4_files, capsys):
        code = run([
            "solve-greens", *_io_args(p4_files),
            "--gamma", "0.25", "--eps", "0.1", "--seed", "7",
        ])
        assert code == 2

    def test_byte_identical_reruns_and_workers(self, p4_files, tmp_path):
        outs = []
        for i, workers in enumerate((1, 4, 1)):
            out = tmp_path / f"r{i}.json"
            code = run([
                "solve-greens", *_io_args(p4_files, out),
                "--gamma", "0.25", "--eps", "0.4", "--seed", "9",
                "--workers", str(workers),
            ])
            assert code == 0
            outs.append(out.read_text())
        stripped = {_strip_elapsed(text) for text in outs}
        assert len(stripped) == 1


class TestRejectedInput:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_boundary_exits_one(self, p4_files, tmp_path, capsys, value):
        bad = tmp_path / "nonfinite.txt"
        bad.write_text(f"# values\n0 {value}\n")
        assert run(["solve-exact", *_io_args(dict(p4_files, boundary=str(bad)))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err

    @pytest.mark.parametrize("kind, text", [
        ("graph", "0 1\n1 2\n2 9223372036854775808\n"),
        ("subset", "1\n18446744073709551616\n"),
        ("boundary", "0 1.0\n9223372036854775808 2.0\n"),
    ])
    def test_id_beyond_int64_exits_one(self, p4_files, tmp_path, capsys, kind, text):
        bad = tmp_path / f"huge_{kind}.txt"
        bad.write_text(text)
        assert run(["validate", *_io_args(dict(p4_files, **{kind: str(bad)}))]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["graph", "subset", "boundary"])
    def test_non_utf8_file_exits_one(self, p4_files, tmp_path, capsys, kind):
        # Bytes ff fe, a UTF-16 byte-order mark, start the file.
        bad = tmp_path / f"utf16_{kind}.txt"
        bad.write_bytes(b"\xff\xfe" + Path(p4_files[kind]).read_text().encode("utf-16-le"))
        assert run(["validate", *_io_args(dict(p4_files, **{kind: str(bad)}))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["graph", "subset", "boundary"])
    def test_utf8_byte_order_mark_is_read_past(self, p4_files, tmp_path, capsys, kind):
        # A file saved with a leading UTF-8 byte-order mark solves as without it.
        assert run(["solve-exact", *_io_args(p4_files)]) == 0
        plain = capsys.readouterr().out
        marked = tmp_path / f"bom_{kind}.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(p4_files[kind]).read_bytes())
        assert run(["solve-exact", *_io_args(dict(p4_files, **{kind: str(marked)}))]) == 0
        assert _strip_elapsed(capsys.readouterr().out) == _strip_elapsed(plain)

    @pytest.mark.parametrize("argv", [
        ["solve-local", "--gamma", "0.2", "--workers", "0"],
        ["solve-greens", "--gamma", "0.25", "--eps", "0.4", "--workers", "-3"],
        ["hkpr-approx", "--t", "1.0", "--eps", "0.3", "--workers", "0"],
        ["sweep-norms", "--points", "1"],
        ["sweep-norms", "--points", "0"],
    ])
    def test_bad_counts_exit_two(self, p4_files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], *_io_args(p4_files), *argv[1:]])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hkpr-approx", "--t", "inf", "--eps", "0.3"],
        ["hkpr-approx", "--t", "nan", "--eps", "0.3"],
        ["hkpr-exact", "--t", "nan"],
        ["hkpr-exact", "--t", "inf"],
        ["solve-greens", "--gamma", "0.25", "--eps", "0.4", "--constant-override", "inf"],
        ["solve-greens", "--gamma", "0.25", "--eps", "0.4", "--constant-override", "nan"],
        ["solve-greens", "--gamma", "0.25", "--eps", "0.4", "--constant-override", "-3"],
        ["solve-greens", "--gamma", "0.25", "--eps", "0.4", "--constant-override", "0"],
        ["hkpr-approx", "--t", "1.0", "--eps", "0.3", "--constant-override", "0"],
        # Counts past int64: gamma^2 or eps^3 underflows to 0, or the
        # schedule's N or r_outer overflows; for sweep-norms, s^3 / gamma
        # overflows, so T is not finite.
        ["solve-local", "--gamma", "1e-200"],
        ["solve-local", "--gamma", "1e-160"],
        ["solve-greens", "--gamma", "1e-200", "--eps", "0.5"],
        ["sweep-norms", "--gamma", "1e-310"],
        ["hkpr-approx", "--t", "1.0", "--eps", "1e-200"],
    ])
    def test_non_finite_t_or_bad_walk_constant_exit_two(self, p4_files, capsys, argv):
        assert run([argv[0], *_io_args(p4_files), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


class TestVectorCommands:
    def test_hkpr_exact_csv(self, p4_files, capsys):
        assert run(["hkpr-exact", *_io_args(p4_files), "--t", "1.0"]) == 0
        text = capsys.readouterr().out
        rows = load_vector_csv(text)
        assert rows[1] == pytest.approx(math.exp(-1) * math.cosh(0.5), abs=1e-14)
        assert rows[2] == pytest.approx(math.exp(-1) * math.sinh(0.5), abs=1e-14)

    def test_hkpr_approx_csv_round_trip(self, p4_files, tmp_path):
        out = tmp_path / "v.csv"
        code = run([
            "hkpr-approx", *_io_args(p4_files, out),
            "--t", "1.0", "--eps", "0.3", "--seed", "2",
        ])
        assert code == 0
        rows = load_vector_csv(out.read_text())
        direct = hk.approx_dirhkpr(
            hk.load_graph("0 1\n1 2\n2 3"),
            1.0,
            np.array([1.0, 0.0]),
            hk.VertexSubset.from_iterable([1, 2], 4),
            0.3,
            master_seed=2,
        )
        assert rows[1] == direct[0] and rows[2] == direct[1]


class TestSweep:
    def test_sweep_schema_and_monotone_tail(self, p4_files, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep-norms", *_io_args(p4_files, out), "--points", "40"]) == 0
        rows = load_sweep_csv(out.read_text())
        assert len(rows) == 40
        assert rows[0][0] == pytest.approx(1.0)
        assert rows[-1][0] == pytest.approx(hk.make_schedule(2, 0.01).T, rel=1e-12)
        l1 = [r[1] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(l1, l1[1:]))

    def test_tiny_gamma_reaches_finite_horizon(self, p4_files, capsys):
        # At gamma = 1e-200 the schedule's r_outer passes int64, but the sweep
        # reads only T = s^3 ln(s^3 / gamma), which is finite.
        assert run(["sweep-norms", *_io_args(p4_files), "--gamma", "1e-200",
                    "--points", "5"]) == 0
        ts = [row[0] for row in load_sweep_csv(capsys.readouterr().out)]
        assert ts == sorted(ts) and len(set(ts)) == 5
        assert ts[0] == 1.0
        assert ts[-1] == pytest.approx(8 * math.log(8 / 1e-200), rel=1e-12)

    def test_first_row_matches_exact(self, p4_files, capsys, p4_problem):
        assert run(["sweep-norms", *_io_args(p4_files), "--points", "10"]) == 0
        rows = load_sweep_csv(capsys.readouterr().out)
        op = hk.restricted_operator(p4_problem.graph, p4_problem.subset)
        rho = hk.exact_dirhkpr(op, 1.0, p4_problem.b2)
        assert rows[0][1] == pytest.approx(np.abs(rho).sum(), rel=1e-12)
        assert rows[0][2] == pytest.approx(np.abs(rho).max(), rel=1e-12)

    def test_rows_ascend_when_the_horizon_is_below_one(self, tmp_path, capsys):
        # s = 1 and gamma > 1/e give T = ln(1 / gamma) < 1: the grid runs
        # from T up to 1.
        files = _write_files(tmp_path, "0 1\n1 2\n", "1\n", "0 1.0\n")
        assert run(["sweep-norms", *_io_args(files), "--gamma", "0.5", "--points", "3"]) == 0
        ts = [row[0] for row in load_sweep_csv(capsys.readouterr().out)]
        assert ts == sorted(ts) and len(set(ts)) == 3
        assert ts[0] == pytest.approx(math.log(2.0), rel=1e-15) and ts[-1] == 1.0

    def test_dolphins_grid_reaches_horizon(self, tmp_path):
        out = tmp_path / "dolphins_sweep.csv"
        code = run([
            "sweep-norms",
            "--graph", str(dolphins_graph_path()),
            "--subset", str(dolphins_subset_path()),
            "--boundary", str(dolphins_boundary_path()),
            "--points", "50",
            "--out", str(out),
        ])
        assert code == 0
        rows = load_sweep_csv(out.read_text())
        assert rows[-1][0] == pytest.approx(108738.936, abs=0.01)


def _grid_files(tmp_path, patch):
    """Write the :func:`grid_patch` problem as CLI input files."""
    pairs, inner, boundary, values = grid_patch(patch)
    files = {"graph": tmp_path / "grid.edges", "subset": tmp_path / "grid.subset",
             "boundary": tmp_path / "grid.boundary"}
    files["graph"].write_text("".join(f"{a} {b}\n" for a, b in pairs))
    files["subset"].write_text("".join(f"{v}\n" for v in inner))
    files["boundary"].write_text(
        "".join(f"{v} {x!r}\n" for v, x in zip(boundary.tolist(), values.tolist())))
    return {k: str(v) for k, v in files.items()}


class TestKrylovBackend:
    def test_past_the_dense_limit(self, tmp_path, capsys):
        # A 65 x 65 patch: s = 4225 is above DENSE_SIZE_LIMIT.
        patch = 65
        files = _grid_files(tmp_path, patch)
        assert patch * patch > hk.DENSE_SIZE_LIMIT
        assert run(["solve-exact", *_io_args(files)]) == 0
        doc = json.loads(capsys.readouterr().out)
        pairs, inner, boundary, values = grid_patch(patch)
        x = np.array([doc["x_s"][str(v)] for v in inner])
        # The harmonic system assembled and solved with scipy.sparse.
        n, s = (patch + 2) ** 2, inner.size
        deg = np.bincount(pairs.ravel(), minlength=n).astype(np.float64)
        local = np.full(n, -1)
        local[inner] = np.arange(s)
        u, v = np.concatenate([pairs, pairs[:, ::-1]]).T
        w = 1.0 / np.sqrt(deg[u] * deg[v])
        inside = (local[u] >= 0) & (local[v] >= 0)
        cross = (local[u] >= 0) & (local[v] < 0)
        coupling = scipy.sparse.coo_matrix(
            (w[inside], (local[u[inside]], local[v[inside]])), shape=(s, s))
        b = np.zeros(n)
        b[boundary] = values
        rhs = np.bincount(local[u[cross]], weights=w[cross] * b[v[cross]], minlength=s)
        expected = scipy.sparse.linalg.spsolve((scipy.sparse.identity(s) - coupling).tocsc(), rhs)
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert run(["solve-local", *_io_args(files), "--gamma", "0.3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["error_bounds"]["local"] > 0.0

    def test_dense_product_on_a_clique_with_a_hub(self, tmp_path, capsys, monkeypatch):
        # K_250 plus a hub joined to every member, b(hub) = 3: the coupling
        # fills L_S, so the Krylov operator multiplies by it densely, and
        # lambda1 = 1/250 and x_s = 3 to about s^2 eps (the closed form of
        # tests/test_dirichlet.py::TestDenseProduct).
        s = 250
        files = {"graph": tmp_path / "k.edges", "subset": tmp_path / "k.subset",
                 "boundary": tmp_path / "k.boundary"}
        files["graph"].write_text("".join(f"{u} {v}\n" for u, v in clique_hub_pairs(s)))
        files["subset"].write_text("".join(f"{v}\n" for v in range(s)))
        files["boundary"].write_text(f"{s} 3\n")
        monkeypatch.setenv("SOLVER_LOG", "info")
        assert run(["solve-exact", *_io_args({k: str(v) for k, v in files.items()})]) == 0
        captured = capsys.readouterr()
        assert re.search(r"\[INFO\] hklocal\.dirichlet: krylov operator: s = 250, lambda1 = "
                         r"\S+, built in [0-9.]+ s, dense product of 62250 entries$",
                         captured.err, re.MULTILINE)
        doc = json.loads(captured.out)
        tol = s * s * np.finfo(np.float64).eps
        assert doc["lambda1"] == pytest.approx(1.0 / s, rel=tol, abs=0.0)
        assert len(doc["x_s"]) == s
        assert all(abs(x / 3.0 - 1.0) <= tol for x in doc["x_s"].values())

    def test_sweep_matches_the_dense_oracle(self, tmp_path, capsys):
        files = _grid_files(tmp_path, 30)
        assert run(["sweep-norms", *_io_args(files), "--points", "60"]) == 0
        rows = load_sweep_csv(capsys.readouterr().out)
        problem = grid_patch_problem(30)
        dense = hk.DirichletOperator.from_subset(problem.graph, problem.subset)
        scale = np.abs(problem.b2).sum()
        for t, l1, top in rows:
            rho = np.abs(hk.exact_dirhkpr(dense, t, problem.b2))
            assert abs(l1 - rho.sum()) <= 1e-11 * max(rho.sum(), scale)
            assert abs(top - rho.max()) <= 1e-11 * max(rho.max(), scale)


def test_diagnostics_go_to_stderr_only(p4_files, capsys, monkeypatch):
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(["solve-local", *_io_args(p4_files), "--gamma", "0.2"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout holds exactly the result document


def test_graph_load_logged_at_info_only(p4_files, capsys, monkeypatch):
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    err = capsys.readouterr().err
    assert "[INFO] hklocal.graph: loaded 4 vertices and 3 edges with the bulk parser in " in err
    assert re.search(r"bulk parser in [0-9.]+ s \(parse [0-9.]+ s, CSR build [0-9.]+ s\)$", err, re.M)
    monkeypatch.delenv("SOLVER_LOG")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    assert capsys.readouterr().err == ""


def test_validation_logged_at_info_only(p4_files, capsys, monkeypatch):
    # S = {1, 2} in P4 has the vertex boundary {0, 3}.
    line = r"^\[INFO\] hklocal\.graph: validated the boundary problem: s = 2, \|delta S\| = 2 in [0-9.]+ s$"
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    assert re.search(line, capsys.readouterr().err, re.M)
    monkeypatch.delenv("SOLVER_LOG")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    assert capsys.readouterr().err == ""


def test_operator_stage_logged_at_info_only(p4_files, capsys, monkeypatch):
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    err = capsys.readouterr().err
    assert "[INFO] hklocal.dirichlet: dense operator: s = 2, lambda1 = 0.5, built in " in err
    monkeypatch.delenv("SOLVER_LOG")
    assert run(["solve-exact", *_io_args(p4_files)]) == 0
    assert capsys.readouterr().err == ""


def test_walks_logged_at_info_only(p4_files, capsys, monkeypatch):
    # One line per estimator call, for hkpr-approx and solve-greens alike,
    # with the counts the report states.
    line = re.compile(r"\[INFO\] hklocal\.walks: (\d+) walks started, (\d+) steps, "
                      r"(\d+) aborted, (\d+) blocks in [0-9.]+ s \([0-9.e+]+ steps/s\)$")
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(["hkpr-approx", *_io_args(p4_files), "--t", "3", "--eps", "0.3"]) == 0
    err = capsys.readouterr().err
    (started, steps, aborted, blocks), = [
        tuple(map(int, m.groups())) for m in map(line.match, err.splitlines()) if m]
    assert started == hk.sample_count(0.3, 4) and 0 < aborted < started
    assert steps >= aborted and blocks > 0
    argv = ["solve-greens", *_io_args(p4_files), "--gamma", "0.25", "--eps", "0.4", "--seed", "7"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    inst = json.loads(captured.out)["instrumentation"]
    (started, steps, aborted, _), = [
        tuple(map(int, m.groups())) for m in map(line.match, captured.err.splitlines()) if m]
    assert (started, steps, aborted) == (
        inst["walks_started"], inst["walk_steps_total"], inst["walks_aborted"])
    monkeypatch.delenv("SOLVER_LOG")
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, method", [
    (["solve-local", "--gamma", "0.25"], "local-linear-solver"),
    (["solve-greens", "--gamma", "0.25", "--eps", "0.4"], "greens-solver"),
])
def test_sampling_and_reduction_logged_at_info_only(p4_files, capsys, monkeypatch, command,
                                                     method):
    # One sampling line with the report's r_outer and rate, then one
    # reduction line, from each solver.
    argv = [*command, *_io_args(p4_files), "--seed", "3"]
    monkeypatch.setenv("SOLVER_LOG", "info")
    assert run(argv) == 0
    captured = capsys.readouterr()
    schedule = json.loads(captured.out)["schedule"]
    lines = [line for line in captured.err.splitlines() if line.startswith("[INFO] hklocal.solvers:")]
    assert len(lines) == 2
    sampling = re.fullmatch(rf"\[INFO\] hklocal\.solvers: {method} sampling: (\d+) times drawn "
                            r"at rate (\S+) in [0-9.]+ s", lines[0])
    assert int(sampling[1]) == schedule["r_outer"]
    assert float(sampling[2]) == pytest.approx(schedule["rate"], rel=1e-5)
    assert re.fullmatch(rf"\[INFO\] hklocal\.solvers: {method} reduction in [0-9.]+ s", lines[1])
    monkeypatch.delenv("SOLVER_LOG")
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_solve_local_applies_share_one_lanczos_run(tmp_path, capsys, monkeypatch):
    # The solver and the Riemann sum apply from b1 and the Green's solution
    # solves from it: the solver builds the Lanczos run, the other two
    # replay it.
    monkeypatch.setenv("SOLVER_LOG", "debug")
    files = _grid_files(tmp_path, 15)
    assert run(["solve-local", *_io_args(files), "--gamma", "0.3", "--seed", "1"]) == 0
    err = capsys.readouterr().err
    assert re.search(r"\[INFO\] hklocal\.dirichlet: krylov operator: s = 225, lambda1 = \S+, "
                     r"built in [0-9.]+ s, sparse product of 840 entries$", err, re.MULTILINE)
    calls = [(line.split("Krylov ", 1)[1].split(":")[0], line.split(", ")[1])
             for line in err.splitlines() if "Krylov apply" in line or "Krylov solve" in line]
    assert [kind for kind, _ in calls] == ["apply", "solve", "apply"]
    assert calls[0][1] == "new run" and "new run" not in [state for _, state in calls[1:]]


def test_solve_greens_runs_one_lambda1_lanczos(tmp_path, capsys, monkeypatch):
    # At s = 225 the operator is Krylov: its lambda1 run sets the solver's
    # rate, lambda1 / 2, and serves the error bounds, and it runs once.
    calls = []
    lambda1_run = hk.dirichlet._lambda1_run

    def spy(*args):
        calls.append(len(args[-1]))
        return lambda1_run(*args)

    monkeypatch.setattr(hk.dirichlet, "_lambda1_run", spy)
    files = _grid_files(tmp_path, 15)
    assert run(["solve-greens", *_io_args(files), "--gamma", "0.4", "--eps", "0.5"]) == 0
    rate = json.loads(capsys.readouterr().out)["schedule"]["rate"]
    assert calls == [225]
    assert run(["solve-exact", *_io_args(files)]) == 0
    assert json.loads(capsys.readouterr().out)["lambda1"] / 2 == rate


def test_constant_override_changes_round_count(p4_files, tmp_path):
    outs = []
    for constant in ("16.0", "4.0"):
        out = tmp_path / f"c{constant}.json"
        code = run([
            "solve-greens", *_io_args(p4_files, out),
            "--gamma", "0.25", "--eps", "0.4", "--seed", "1",
            "--constant-override", constant,
        ])
        assert code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["instrumentation"]["walks_started"] > outs[1]["instrumentation"]["walks_started"]


def test_parser_reuse_after_rejected_flag(p4_files, capsys):
    # The parser is built once per process; a run it rejects must not change
    # what a later run in the same process parses.
    argv = ["solve-greens", *_io_args(p4_files), "--gamma", "0.25", "--eps", "0.4", "--seed", "9"]
    with pytest.raises(SystemExit) as exc:
        run([*argv[:-2], "--seed", "3", "--workers", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(argv) == 0
    reused = capsys.readouterr().out
    src = str(Path(hk.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "hklocal.cli", *argv], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert _strip_elapsed(reused) == _strip_elapsed(fresh)


# The report writer against json.dumps(indent=2).  Strings hold the separators
# the writer re-indents at, quotes, backslashes, control and non-ASCII
# characters; floats include the edge cases of float repr.
_TEXTS = st.lists(st.one_of(st.sampled_from([", ", ": ", ",", '"', "\\", "\n", "\x00", "\x1f",
                                             "\u00e9", "\u2028", "\U0001f600"]),
                            st.characters()), max_size=4).map("".join)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
                    st.integers(0, 30).map(lambda j: 0.1 * j))
_LEAVES = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _TEXTS)


def _containers(children):
    return st.lists(children, max_size=5) | st.dictionaries(_TEXTS, children, max_size=5)


_DOCS = st.dictionaries(_TEXTS, st.recursive(_LEAVES, _containers, max_leaves=20), max_size=6)
_NON_FINITE = st.recursive(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.one_of(
        st.tuples(st.lists(_LEAVES, max_size=3), inner, st.lists(_LEAVES, max_size=3))
        .map(lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(st.dictionaries(_TEXTS, _LEAVES, max_size=3), _TEXTS, inner)
        .map(lambda t: {**t[0], t[1]: t[2]})),
    max_leaves=5,
)
_WRITER = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@_WRITER
@given(_DOCS)
@example({"a, b": 1.0, "e": [], "d": {}, "l": [-0.0, 2, True, None, "x, y"], "n": [[{}], {"": []}]})
def test_json_doc_is_json_dumps_with_indent(doc):
    assert _json_doc(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@_WRITER
@given(_TEXTS, _NON_FINITE)
def test_json_doc_refuses_non_finite_at_any_depth(key, bad):
    with pytest.raises(ValueError, match=re.escape(_NOT_FINITE)):
        _json_doc({"format_version": 1, key: bad})
