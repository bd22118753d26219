"""The bundled LP-file MILP backend: parser units, solver behaviour, and
the command-line entry point."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from limid import milp_backend
from limid.diagram_io import save_diagram
from limid.generators import (
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
)
from limid.milp_backend import LpParseError, main, parse_lp, solve_lp_text
from limid.mip import add_risk, build_base_model
from limid.risk import CvarObjective
from limid.rjt import build_rjt
from limid.solve import export_lp
from limid.transform import merge_value_nodes

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


SMALL_LP = """\
\\ a comment line
Maximize
 obj: 3 x + 2 y - z
Subject To
\\ capacity
 c1: x + y <= 1.5
 c2: y - 2 z >= -1
 c3: x + z = 1
Bounds
 0 <= y <= 1
 z free
Binaries
 x
End
"""


class TestParser:
    def test_small_program(self):
        p = parse_lp(SMALL_LP)
        assert p.sense == "max"
        assert p.variables == ["x", "y", "z"]
        assert p.objective == {"x": 3.0, "y": 2.0, "z": -1.0}
        assert p.rows == [
            ({"x": 1.0, "y": 1.0}, "<=", 1.5),
            ({"y": 1.0, "z": -2.0}, ">=", -1.0),
            ({"x": 1.0, "z": 1.0}, "=", 1.0),
        ]
        assert p.lower == {"y": 0.0, "z": -float("inf"), "x": 0.0}
        assert p.upper == {"y": 1.0, "z": float("inf"), "x": 1.0}
        assert p.integer == {"x": True}

    def test_operators_survive_missing_whitespace(self):
        p = parse_lp("Minimize obj: 2x+3y\nSubject To c1: x+y>=4\nEnd")
        assert p.sense == "min"
        assert p.objective == {"x": 2.0, "y": 3.0}
        assert p.rows == [({"x": 1.0, "y": 1.0}, ">=", 4.0)]

    def test_row_labels_are_not_variables(self):
        p = parse_lp("Maximize\n obj: x\nSubject To\n c1: x <= 2\nEnd")
        assert p.variables == ["x"]

    def test_signs_and_constants(self):
        p = parse_lp(
            "Minimize\n obj: - x + 2.5\nSubject To\n r: - 2 x - - 3 <= 7\nEnd"
        )
        assert p.objective == {"x": -1.0}
        assert p.constant == 2.5
        # constants move to the right-hand side
        assert p.rows == [({"x": -2.0}, "<=", 4.0)]

    def test_repeated_variable_coefficients_accumulate(self):
        p = parse_lp("Maximize\n obj: x + 2 x\nSubject To\n c: x <= 1\nEnd")
        assert p.objective == {"x": 3.0}

    def test_scientific_notation(self):
        p = parse_lp("Maximize\n obj: 1e-3 x\nSubject To\n c: x <= 1E2\nEnd")
        assert p.objective == {"x": 0.001}
        assert p.rows[0][2] == 100.0

    def test_general_integers(self):
        p = parse_lp(
            "Maximize\n obj: n\nSubject To\n c: n <= 7.5\nGeneral\n n\nEnd"
        )
        assert p.integer == {"n": True}
        assert "n" not in p.upper  # generals stay unbounded above

    def test_errors(self):
        with pytest.raises(LpParseError, match="empty"):
            parse_lp("   \n\\ only comments\n")
        with pytest.raises(LpParseError, match="relational"):
            parse_lp("Maximize\n obj: x\nSubject To\n c1: x + y\nEnd")
        with pytest.raises(LpParseError, match="right-hand"):
            parse_lp("Maximize\n obj: x\nSubject To\n c1: x <= \nEnd")
        with pytest.raises(LpParseError, match="outside"):
            parse_lp("stray tokens here")
        with pytest.raises(LpParseError, match="bad bound"):
            parse_lp("Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n 0 <=")


    def test_error_names_the_token_in_the_whole_text(self):
        # The first rows section is in the exported layout, the second is
        # not; the token count runs through both.
        text = ("Maximize\n obj: 1.0 x\nSubject To\n c1: 1.0 x <= 1.0\nBounds\n"
                " 0 <= x <= 1\nSubject To\n c2: x + y\nEnd\n")
        with pytest.raises(LpParseError, match="relational operator near token 26$"):
            parse_lp(text)

    def test_exported_layout_read_as_the_tokens_read(self):
        # A repeated name adds up from 0.0, "- 0.0" is +0.0, an unsigned
        # first term is positive, and a header after "<=" is a bound's name.
        p = parse_lp("Maximize\n obj: 2.0 x - 0.0 y + 1.5 x\nSubject To\n"
                     " c1: - 1.0 x + 0.5 y - 0.5 y = -0.0\n c2: = 1.0\n"
                     "Bounds\n 0 <= x <= 1\n y free\nEnd\n")
        assert p.objective == {"x": 3.5, "y": 0.0}
        assert str(p.objective["y"]) == "0.0"
        assert p.rows == [({"x": -1.0, "y": 0.0}, "=", -0.0), ({}, "=", 1.0)]
        assert str(p.rows[0][2]) == "-0.0"
        assert (p.lower, p.upper) == ({"x": 0.0, "y": -float("inf")},
                                      {"x": 1.0, "y": float("inf")})
        # nothing after End is read
        assert parse_lp(SMALL_LP + "<= :: - junk") == parse_lp(SMALL_LP)
        p = parse_lp("Minimize\n obj: 1.0 x\nSubject To\n c1: 1.0 x >= 0.0\n"
                     "Bounds\n 0 <=\nBounds\n 0 <= x <= 1\nEnd\n")
        assert p.variables == ["x", "Bounds"]
        assert p.lower == {"Bounds": 0.0, "x": 0.0}


# The dtype of each part of a model when the solver child built it with
# numpy: costs, the matrix (values, indices, starts), row bounds, column
# bounds, integrality.
CHILD_DTYPES = ((np.float64,) * 2 + (np.int32,) * 2 + (np.float64,) * 4
                + (np.int64,))


def _as_arrays(parts):
    return [np.asarray(part, dtype=dtype)
            for part, dtype in zip(parts, CHILD_DTYPES, strict=True)]


def _pinned_lp(name: str) -> str:
    if name == "nmonitoring3":
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
        model, _ = build_base_model(build_rjt(d), d)
    else:
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, CvarObjective(alpha=0.15), ctx)
    return export_lp(model)


def _held(monkeypatch, name: str):
    """Solve the pinned model ``name`` through ``solve_lp_text``; returns
    the LP HiGHS holds when ``run`` starts, the values it holds then of the
    options in ``HIGHS_OPTIONS``, and the parts handed to ``run_highs``."""
    core = milp_backend.highs_core()
    real_highs = core._Highs
    held, passed = [], []

    class Spy:
        def __init__(self):
            self._highs = real_highs()

        def __getattr__(self, attr):
            return getattr(self._highs, attr)

        def run(self):
            held.append(self._highs.getLp())
            held.append({key: self._highs.getOptionValue(key)[1]
                         for key in milp_backend.HIGHS_OPTIONS})
            return self._highs.run()

    real_run = milp_backend.run_highs

    def run_highs(*parts):
        passed.append(parts)
        return real_run(*parts)

    monkeypatch.setattr(core, "_Highs", Spy)
    monkeypatch.setattr(milp_backend, "run_highs", run_highs)
    status, _, _ = solve_lp_text(_pinned_lp(name))
    assert status == "optimal"
    lp, options = held
    return lp, options, passed[0]


class TestSolver:
    def test_small_program_optimum(self):
        status, objective, assignment = solve_lp_text(SMALL_LP)
        # x binary: x=1 forces z=0; y limited to 0.5 by c1
        assert status == "optimal"
        assert objective == pytest.approx(4.0)
        assert assignment["x"] == pytest.approx(1.0)
        assert assignment["y"] == pytest.approx(0.5)
        assert assignment["z"] == pytest.approx(0.0, abs=1e-9)

    def test_objective_constant_carried_through(self):
        status, objective, _ = solve_lp_text(
            "Maximize\n obj: x + 10\nSubject To\n c: x <= 1\nEnd"
        )
        assert status == "optimal"
        assert objective == pytest.approx(11.0)

    def test_minimization(self):
        status, objective, assignment = solve_lp_text(
            "Minimize\n obj: x\nSubject To\n c: x >= 2.5\nEnd"
        )
        assert status == "optimal"
        assert objective == pytest.approx(2.5)

    def test_infeasible(self):
        status, objective, assignment = solve_lp_text(
            "Maximize\n obj: x\nSubject To\n a: x >= 2\n b: x <= 1\nEnd"
        )
        assert status == "infeasible"
        assert objective is None
        assert assignment == {}

    def test_unbounded(self):
        status, _, _ = solve_lp_text(
            "Maximize\n obj: x\nSubject To\n c: x >= 0\nBounds\n x free\nEnd"
        )
        assert status == "unbounded"

    def test_model_without_rows(self):
        # A row-wise matrix without rows has the one indptr entry 0.
        status, objective, assignment = solve_lp_text(
            "Maximize\n obj: x + y\nBounds\n x <= 3\n y <= 1.5\nGeneral\n y\nEnd"
        )
        assert status == "optimal"
        assert objective == pytest.approx(4.0)
        assert assignment == {"x": pytest.approx(3.0), "y": pytest.approx(1.0)}

    def test_integrality_changes_the_answer(self):
        base = "Maximize\n obj: x\nSubject To\n c: 2 x <= 3\n{}End"
        relaxed = solve_lp_text(base.format(""))
        integral = solve_lp_text(base.format("General\n x\n"))
        assert relaxed[1] == pytest.approx(1.5)
        assert integral[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("name, digest", [
        ("nmonitoring3",
         "50e94371a56e3f8291cd1cedf4db1fe110955dd7f79a6296e9fd0a0caf6b92e3"),
        ("pigfarm3_merged_cvar",
         "c30f2de041c38a385f598c44a18e4473ffdda00639a6b82ed5a2fb34095cba33"),
    ])
    def test_highs_input_pinned(self, monkeypatch, name, digest):
        # Everything HiGHS holds when ``run`` starts: objective, matrix, row
        # and column bounds, integrality and options.  HiGHS's answers on
        # these models move with such details, column order included.
        lp, options, _ = _held(monkeypatch, name)
        matrix = lp.a_matrix_
        assert matrix.format_ == milp_backend.highs_core().MatrixFormat.kColwise
        parts = (lp.col_cost_, matrix.value_, matrix.index_, matrix.start_,
                 lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_,
                 list(map(int, lp.integrality_)))
        sha = hashlib.sha256()
        for part in _as_arrays(parts):
            sha.update(f"{part.dtype.str}{part.shape}".encode())
            sha.update(part.tobytes())
        # Console logging is the one option that cannot move an answer.
        del options["log_to_console"]
        shape = (lp.num_row_, lp.num_col_)
        sha.update(f"csc{shape}{sorted(options.items())}".encode())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("name", ["nmonitoring3", "pigfarm3_merged_cvar"])
    def test_handover_matches_a_model_passed_from_arrays(self, monkeypatch,
                                                         name):
        # The LP HiGHS holds when ``run`` starts must be the one a HighsLp
        # built from numpy arrays and passed whole gives, bit for bit:
        # the costs of a max-sense model hold -0.0 for every zero.
        core = milp_backend.highs_core()
        real_highs = core._Highs
        got, _, parts = _held(monkeypatch, name)

        c, data, indices, indptr, row_lower, row_upper, col_lower, \
            col_upper, integrality = _as_arrays(parts)
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = c.size
        lp.num_row_ = lp.a_matrix_.num_row_ = row_lower.size
        lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
        lp.col_cost_ = c
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = indices
        lp.a_matrix_.value_ = data
        lp.integrality_ = [core.HighsVarType(i) for i in integrality.tolist()]
        highs = real_highs()
        highs.setOptionValue("log_to_console", False)
        assert highs.passModel(lp) == core.HighsStatus.kOk
        want = highs.getLp()

        assert np.signbit(c).sum() > 0  # the -0.0 costs are there to lose
        assert (got.sense_, got.offset_) == (want.sense_, want.offset_)
        assert (got.num_col_, got.num_row_) == (want.num_col_, want.num_row_)
        assert got.a_matrix_.format_ == want.a_matrix_.format_
        for field in ("col_cost_", "col_lower_", "col_upper_", "row_lower_",
                      "row_upper_"):
            assert (np.asarray(getattr(got, field)).tobytes()
                    == np.asarray(getattr(want, field)).tobytes()), field
        for field in ("start_", "index_", "value_"):
            assert (np.asarray(getattr(got.a_matrix_, field)).tobytes()
                    == np.asarray(getattr(want.a_matrix_, field)).tobytes()), field
        assert list(got.integrality_) == list(want.integrality_)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "limid.milp_backend", *args],
            capture_output=True,
            text=True,
        )

    def test_solves_snapshot_file(self):
        proc = self.run_cli(str(DATA / "pigfarm1.lp"))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "status optimal"
        assert lines[1].startswith("objective ")
        assert float(lines[1].split()[1]) == pytest.approx(821.8)
        pairs = dict(l.split() for l in lines[2:])
        assert "mu_H1_0" in pairs and "delta_D1_0_0" in pairs

    def test_closes_its_file(self):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "limid.milp_backend", str(DATA / "pigfarm1.lp")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_missing_file_exits_2(self):
        proc = self.run_cli("no_such_file.lp")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("Maximize\n obj: x\nSubject To\n c1: x + y\nEnd\n")
        proc = self.run_cli(str(bad))
        assert proc.returncode == 2
        assert "relational" in proc.stderr

    def test_infeasible_is_a_definitive_answer(self, tmp_path):
        lp = tmp_path / "inf.lp"
        lp.write_text(
            "Maximize\n obj: x\nSubject To\n a: x >= 2\n b: x <= 1\nEnd\n"
        )
        proc = self.run_cli(str(lp))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "status infeasible"

    def test_model_highs_rejects_exits_2(self, tmp_path):
        # HiGHS refuses an infinite matrix coefficient; that is no answer,
        # and in particular not "infeasible" (the optimum here is x = 1).
        lp = tmp_path / "inf_coef.lp"
        lp.write_text("Maximize\n obj: x\nSubject To\n c: x + 1e999 y <= 1\nEnd\n")
        proc = self.run_cli(str(lp))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error HiGHS rejected the model")

    @pytest.mark.parametrize("text", [
        "Maximize\n obj: 0\nEnd\n",  # no columns
        "Maximize\n obj: 1e999 x\nSubject To\n c: x <= 1\nEnd\n",
    ])
    def test_objective_refusals_exit_2(self, tmp_path, text):
        lp = tmp_path / "obj.lp"
        lp.write_text(text)
        proc = self.run_cli(str(lp))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error `c` must be a one-dimensional array of finite numbers "
            "with at least one element.\n"
        )

    def test_main_callable_in_process(self, tmp_path, capsys):
        lp = tmp_path / "m.lp"
        lp.write_text("Minimize\n obj: x\nSubject To\n c: x >= 1\nEnd\n")
        code = main([str(lp)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "status optimal"


class TestLazyPackage:
    def run_python(self, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def run_child(self, before=""):
        """Run ``main`` on pigfarm1.lp in a fresh interpreter after the
        statements ``before``; returns its listing and what it loaded."""
        return self.run_python(
            "import contextlib, io, json, sys\n"
            f"{before}\n"
            "from limid.milp_backend import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main([{str(DATA / 'pigfarm1.lp')!r}])\n"
            "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))"
        )

    def run_compare(self, diagram, before=""):
        """Run ``limid compare --external`` on ``diagram`` in a fresh
        interpreter after the statements ``before``; returns its exit code,
        its stdout and what the interpreter loaded."""
        return self.run_python(
            "import contextlib, io, json, sys\n"
            f"{before}\n"
            "from limid.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main(['compare', {str(diagram)!r}, '--external', '--json'])\n"
            "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))"
        )

    @pytest.fixture
    def pig2(self, tmp_path):
        path = tmp_path / "pig2.json"
        save_diagram(gen_pigfarm(PigFarmSpec(n_periods=2)), path)
        return path

    def test_solver_child_imports_only_its_module(self):
        code, listing, loaded = self.run_child()
        assert code == 0 and listing.startswith("status optimal\n")
        assert [m for m in loaded if m.startswith("limid")] == [
            "limid", "limid.milp_backend"]
        assert "scipy.optimize._highspy._core" in loaded
        assert "scipy.optimize" not in loaded
        assert "scipy.sparse" not in loaded
        assert "numpy" not in loaded
        assert "dataclasses" not in loaded

    def test_loaded_core_is_the_one_scipy_optimize_uses(self):
        same, status, fun = self.run_python(
            "import json\n"
            "from limid.milp_backend import highs_core\n"
            "core = highs_core()\n"
            "from scipy import optimize\n"
            "from scipy.optimize._highspy import _highs_wrapper\n"
            "res = optimize.milp([-1.0, -2.0], integrality=[1, 0],\n"
            "                    bounds=optimize.Bounds(0, [1.5, 0.5]))\n"
            "print(json.dumps([_highs_wrapper._h is core, int(res.status), res.fun]))"
        )
        assert same
        assert (status, fun) == (0, -2.0)

    def test_loaded_kernels_are_the_ones_scipy_sparse_uses(self):
        same, product, fun = self.run_python(
            "import json\n"
            "import numpy as np\n"
            "from limid.milp_backend import sparsetools\n"
            "tools = sparsetools()\n"
            "from scipy import optimize, sparse\n"
            "from scipy.sparse import _compressed\n"
            "m = sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))\n"
            "res = optimize.milp([-1.0, -2.0], integrality=[1, 0],\n"
            "                    bounds=optimize.Bounds(0, [1.5, 0.5]),\n"
            "                    constraints=optimize.LinearConstraint([[1, 1]], 0, 1.5))\n"
            "print(json.dumps([_compressed._sparsetools is tools,\n"
            "                  (m @ np.ones(2)).tolist(), res.fun]))"
        )
        assert same
        assert product == [3.0, 3.0]
        assert fun == -2.0

    def test_compare_loads_only_the_sparse_kernels(self, pig2):
        code, out, loaded = self.run_compare(pig2)
        assert code == 0 and json.loads(out.splitlines()[-1])["ok"]
        assert "scipy.sparse._sparsetools" in loaded
        for heavy in ("scipy.sparse", "scipy._lib._array_api", "numpy.f2py",
                      "numpy.testing"):
            assert heavy not in loaded

    def test_fallback_import_gives_the_same_compare_record(self, pig2):
        code, out, _ = self.run_compare(pig2)
        fallback = self.run_compare(
            pig2, "import importlib.machinery\n"
            "importlib.machinery.EXTENSION_SUFFIXES = []")
        assert fallback[:2] == [code, out]
        assert "scipy.sparse" in fallback[2]

    def test_fallback_import_gives_the_same_listing(self):
        code, listing, _ = self.run_child()
        # With no extension suffix to try, the file is not found and HiGHS
        # comes through the normal import of scipy.optimize.
        fallback = self.run_child(
            "import importlib.machinery\n"
            "importlib.machinery.EXTENSION_SUFFIXES = []"
        )
        assert fallback[:2] == [code, listing]
        assert "scipy.optimize" in fallback[2]
