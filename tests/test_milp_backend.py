"""The bundled LP-file MILP backend: what HiGHS's reader holds, solver
behaviour, and the command-line entry point."""

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
from limid.milp_backend import main, parse_lp, solve_lp_text
from limid.mip import BINARY, FREE, GE, LE, add_risk, build_base_model
from limid.risk import CvarObjective
from limid.rjt import build_rjt
from limid.solve import export_lp, reference_backend_command
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


def read(tmp_path, text: str):
    """What HiGHS holds after ``parse_lp`` reads ``text`` from a file: the
    sign and offset, column names and costs, column bounds, row bounds,
    the column-wise matrix and the integrality."""
    path = tmp_path / "m.lp"
    path.write_text(text)
    highs, sign, offset = parse_lp(str(path))
    lp = highs.getLp()
    m = lp.a_matrix_
    return dict(sign=sign, offset=offset, names=lp.col_names_,
                costs=[float(c) for c in lp.col_cost_],
                cols=list(zip(lp.col_lower_, lp.col_upper_)),
                rows=list(zip(lp.row_lower_, lp.row_upper_)),
                matrix=(list(m.start_), list(m.index_), list(m.value_)),
                integer=[int(v) for v in lp.integrality_])


class TestParser:
    """``parse_lp`` is HiGHS's LP reader, holding a minimisation."""

    def test_small_program(self, tmp_path):
        p = read(tmp_path, SMALL_LP)
        assert (p["sign"], p["offset"]) == (-1.0, 0.0)
        assert p["names"] == ["x", "y", "z"]
        assert p["costs"] == [-3.0, -2.0, 1.0]
        inf = float("inf")
        assert p["rows"] == [(-inf, 1.5), (-1.0, inf), (1.0, 1.0)]
        assert p["matrix"] == ([0, 2, 4, 6], [0, 2, 0, 1, 1, 2],
                               [1.0, 1.0, 1.0, 1.0, -2.0, 1.0])
        assert p["cols"] == [(0.0, 1.0), (0.0, 1.0), (-inf, inf)]
        assert p["integer"] == [1, 0, 0]

    def test_operators_survive_missing_whitespace(self, tmp_path):
        p = read(tmp_path, "Minimize obj: 2x+3y\nSubject To c1: x+y>=4\nEnd")
        assert p["sign"] == 1.0
        assert (p["names"], p["costs"]) == (["x", "y"], [2.0, 3.0])
        assert p["rows"] == [(4.0, float("inf"))]
        assert p["matrix"] == ([0, 1, 2], [0, 0], [1.0, 1.0])

    def test_row_labels_are_not_variables(self, tmp_path):
        p = read(tmp_path, "Maximize\n obj: x\nSubject To\n c1: x <= 2\nEnd")
        assert p["names"] == ["x"]

    def test_signs_and_constants(self, tmp_path):
        # The objective's constant is the offset, kept out of HiGHS.
        p = read(tmp_path,
                 "Minimize\n obj: - x + 2.5\nSubject To\n r: - 2 x <= 7\nEnd")
        assert (p["costs"], p["offset"]) == ([-1.0], 2.5)
        assert p["matrix"][2] == [-2.0]

    def test_repeated_variable_keeps_highs_meaning(self, tmp_path):
        # In the objective the last term of a name counts; in a row the
        # terms add up.  A constant beside a row's terms is dropped.
        p = read(tmp_path, "Maximize\n obj: 2 x + 5 x\nSubject To\n"
                           " c: x + 2 x + 3 <= 7\nEnd")
        assert p["costs"] == [-5.0]
        assert p["matrix"][2] == [3.0]
        assert p["rows"] == [(-float("inf"), 7.0)]

    def test_scientific_notation(self, tmp_path):
        p = read(tmp_path, "Maximize\n obj: 1e-3 x\nSubject To\n c: x <= 1E2\nEnd")
        assert p["costs"] == [-0.001]
        assert p["rows"][0][1] == 100.0

    def test_general_integers(self, tmp_path):
        p = read(tmp_path,
                 "Maximize\n obj: n\nSubject To\n c: n <= 7.5\nGeneral\n n\nEnd")
        assert p["integer"] == [1]
        assert p["cols"] == [(0.0, float("inf"))]  # unbounded above

    def test_errors(self, tmp_path):
        for text in ("Maximize\n obj: x\nSubject To\n c1: x + y\nEnd",
                     "Maximize\n obj: x\nSubject To\n c1: x <= \nEnd",
                     "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n 0 <="):
            with pytest.raises(ValueError, match="^HiGHS cannot read .*m.lp$"):
                read(tmp_path, text)
        # Text without columns is a model without an objective.
        for text in ("   \n\\ only comments\n", "stray tokens here"):
            with pytest.raises(ValueError, match="at least one element"):
                read(tmp_path, text)
        with pytest.raises(ValueError, match="end in .lp or .mps"):
            parse_lp(str(DATA / "pigfarm1.lp") + ".txt")


# The dtype of each part of a model when the solver child built it with
# numpy: costs, the matrix (values, indices, starts), row bounds, column
# bounds, integrality.
CHILD_DTYPES = ((np.float64,) * 2 + (np.int32,) * 2 + (np.float64,) * 4
                + (np.int64,))


def _as_arrays(parts):
    return [np.asarray(part, dtype=dtype)
            for part, dtype in zip(parts, CHILD_DTYPES, strict=True)]


# The sha256 of what HiGHS holds for each pinned model, by model name.
HIGHS_INPUT_PINS = {
    "nmonitoring3":
        "544e6419c010f9f74d7314d9aea1eb8ec44a6bf25a6e4d11c86f058a0a0c1006",
    "pigfarm3_merged_cvar":
        "cdebfa9fa3cde5e789f9f92fb32dc3f04fe27d83a7ba2ddcb33c3ac064384f73",
}


def _pinned_model(name: str):
    if name == "nmonitoring3":
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
        model, _ = build_base_model(build_rjt(d), d)
    else:
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, CvarObjective(alpha=0.15), ctx)
    return model


def _held(monkeypatch, text: str):
    """Solve ``text`` through ``solve_lp_text``; returns the LP HiGHS holds
    when ``run`` starts and the values it holds then of the options in
    ``HIGHS_OPTIONS``."""
    core = milp_backend.highs_core()
    real_highs = core._Highs
    held = []

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

    monkeypatch.setattr(core, "_Highs", Spy)
    status, _, _ = solve_lp_text(text)
    assert status == "optimal"
    lp, options = held
    return lp, options


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

    @pytest.mark.parametrize("name", HIGHS_INPUT_PINS)
    def test_highs_input_pinned(self, monkeypatch, name):
        # Everything HiGHS holds when ``run`` starts: objective, matrix, row
        # and column bounds, integrality and options.  HiGHS's answers on
        # these models move with such details, column order included.
        lp, options = _held(monkeypatch, export_lp(_pinned_model(name)))
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
        assert sha.hexdigest() == HIGHS_INPUT_PINS[name]

    @pytest.mark.parametrize("name", HIGHS_INPUT_PINS)
    def test_handover_matches_a_model_passed_from_arrays(self, monkeypatch,
                                                         name):
        # The LP HiGHS holds when ``run`` starts, read from the exported
        # text, must be the one a HighsLp built from the model's arrays and
        # passed whole gives, bit for bit: the rows as stored, the costs
        # -objective (so a zero cost is -0.0), bounds and integrality from
        # the kinds.  HiGHS numbers the columns in order of first use in the
        # text, so the arrays are put in that order.
        model = _pinned_model(name)
        got, _ = _held(monkeypatch, export_lp(model))
        names = model.variables.names()
        order = np.array([names.index(n) for n in got.col_names_])
        column = np.argsort(order)  # HiGHS's column of each model column
        kinds = model.variables.kinds[order]
        rows = model.rows

        core = milp_backend.highs_core()
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(order)
        lp.num_row_ = lp.a_matrix_.num_row_ = len(rows)
        lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
        lp.col_cost_ = -model.objective[order]
        lp.col_lower_ = np.where(kinds == FREE, -np.inf, 0.0)
        lp.col_upper_ = np.where(kinds == FREE, np.inf, 1.0)
        lp.row_lower_ = np.where(rows.sense == LE, -np.inf, rows.rhs)
        lp.row_upper_ = np.where(rows.sense == GE, np.inf, rows.rhs)
        lp.a_matrix_.start_ = rows.indptr.astype(np.int32)
        lp.a_matrix_.index_ = column[rows.indices].astype(np.int32)
        lp.a_matrix_.value_ = rows.data
        lp.integrality_ = [core.HighsVarType(int(k == BINARY)) for k in kinds]
        highs = core._Highs()
        highs.setOptionValue("log_to_console", False)
        assert highs.passModel(lp) == core.HighsStatus.kOk
        want = highs.getLp()

        assert np.signbit(want.col_cost_).sum() > 0  # -0.0 costs to lose
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


def bundled(*args, flags=()):
    """The bundled solver command with the interpreter options ``flags``
    and the arguments ``args`` in place of its file argument."""
    python, *options, _ = reference_backend_command()
    return [python, *flags, *options, *args]


class TestCli:
    def run_cli(self, *args, **kwargs):
        return subprocess.run(bundled(*args), capture_output=True, text=True,
                              **kwargs)

    def test_solves_snapshot_file(self):
        proc = self.run_cli(str(DATA / "pigfarm1.lp"))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "status optimal"
        assert lines[1].startswith("objective ")
        assert float(lines[1].split()[1]) == pytest.approx(821.8)
        pairs = dict(l.split() for l in lines[2:])
        assert "mu_H1_0" in pairs and "delta_D1_0_0" in pairs

    def test_needs_no_pythonpath_or_cwd(self, tmp_path):
        # The bundled command runs the module's file without ``site``: no
        # PYTHONPATH, another cwd, and the listing of the installed entry
        # point's module run.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = self.run_cli(str(DATA / "pigfarm1.lp"), cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("status optimal\n")
        module = subprocess.run(
            [sys.executable, "-m", "limid.milp_backend", str(DATA / "pigfarm1.lp")],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(SRC)})
        assert proc.stdout == module.stdout

    def test_closes_its_file(self):
        proc = subprocess.run(
            bundled(str(DATA / "pigfarm1.lp"),
                    flags=("-X", "dev", "-W", "error::ResourceWarning")),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("args", [(), ("a.lp", "b.lp"), ("--help",)])
    def test_usage_exits_2(self, args):
        proc = self.run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == "usage: limid-milp LP_FILE\n"

    def test_name_must_end_in_lp_or_mps(self, tmp_path):
        # HiGHS picks its reader by the file name.
        text = tmp_path / "x.txt"
        text.write_text((DATA / "pigfarm1.lp").read_text())
        proc = self.run_cli(str(text))
        assert proc.returncode == 2
        assert proc.stderr == (f"error {text}: HiGHS reads only files whose "
                               "names end in .lp or .mps\n")

    def test_missing_file_exits_2(self):
        proc = self.run_cli("no_such_file.lp")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error HiGHS cannot read no_such_file.lp\n"

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("Maximize\n obj: x\nSubject To\n c1: x + y\nEnd\n")
        proc = self.run_cli(str(bad))
        assert proc.returncode == 2
        assert proc.stderr == f"error HiGHS cannot read {bad}\n"

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

    def test_bundled_child_loads_no_site_numpy_or_parsers(self):
        # Every module the bundled command imports (-X importtime) or holds
        # at exit (-v lists them as it clears them).
        proc = subprocess.run(
            bundled(str(DATA / "pigfarm1.lp"), flags=("-X", "importtime", "-v")),
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("status optimal\n")
        loaded = set()
        for line in proc.stderr.splitlines():
            if line.startswith("import time:"):
                loaded.add(line.rsplit("|", 1)[1].strip())
            elif line.startswith("# cleanup[") and " removing " in line:
                loaded.add(line.split(" removing ", 1)[1])
        assert "scipy.optimize._highspy._core" in loaded
        assert "os" in loaded and "importlib.util" in loaded
        assert loaded.isdisjoint({"site", "numpy", "argparse", "re", "typing",
                                  "scipy.optimize", "limid"})

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
