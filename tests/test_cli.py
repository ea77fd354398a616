import argparse
import importlib
import io
import json
import pkgutil
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import hypercomplex
from hypercomplex import cli, quadruple
from hypercomplex.bicomplex import NotInvertible
from hypercomplex.biquaternion import DegenerateSpectrum, NotComplanar
from hypercomplex.cli import main
from hypercomplex.multicomplex import OrderMismatch
from hypercomplex.polysolve import NoConvergence, TooManyRoots, ZeroPolynomial
from hypercomplex.quadruple import TableMismatch
from hypercomplex.scalars import ComputationalError, InvariantError, ZeroInput
from hypercomplex.surd import ParseError, UnsupportedNesting, VanishedStock

from test_imports import REPEATED_ROOTS, RUN_CLI, python


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestBc:
    def test_zero_divisor_product_prints_zero(self):
        code, out, _ = run("bc", "mul", "1 - 1*k", "1 + 1*k")
        assert code == 0
        assert out.strip() == "0"

    def test_json_output(self):
        code, out, _ = run("bc", "mul", "1*i", "1*h", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "schema": "1", "w": "0", "x": "0", "y": "0", "z": "1",
        }

    def test_decompose(self):
        code, out, _ = run("bc", "decompose", "1*i", "--format", "json")
        payload = json.loads(out)
        assert payload["z1"] == {"re": "0", "im": "1"}
        assert payload["z2"] == {"re": "0", "im": "-1"}

    def test_inverse_of_nullific_exits_one(self):
        code, _, err = run("bc", "inverse", "1/2 - 1/2*k")
        assert code == 1
        assert "not invertible" in err

    def test_ideal_of_zero_prints_zero(self):
        assert run("bc", "ideal", "0") == (0, "Zero\n", "")
        code, out, _ = run("bc", "ideal", "0 + 0*k", "--format", "json")
        assert (code, json.loads(out)) == (0, {"schema": "1", "ideal": "Zero"})

    def test_huge_float_elements_are_regular(self):
        # the zero-divisor tolerance is finite past a norm of 1e154
        assert run("bc", "ideal", "1e200") == (0, "None\n", "")
        code, out, err = run("bc", "inverse", "1e200")
        assert (code, err) == (0, "")
        assert float(out) == 1e-200

    @pytest.mark.parametrize(
        "element, norm, norm_sq", [("1 + 1*i", "2", "4"), ("1.5 + 2*h", "6.25", "39.0625")]
    )
    def test_norm(self, element, norm, norm_sq):
        assert run("bc", "norm", element) == (0, f"{norm}\n", "")
        assert run("bc", "norm", element, "--format", "json") == (
            0, f'{{"norm": "{norm}", "norm_sq": "{norm_sq}", "schema": "1"}}\n', ""
        )

    def test_conjugates(self):
        element = "1/2 + 3*i - h + 2*k"
        assert run("bc", "conjugates", element) == (
            0,
            "conj_i  1/2 - 3*i - 1*h - 2*k\n"
            "conj_h  1/2 + 3*i + 1*h - 2*k\n"
            "conj_ih 1/2 - 3*i + 1*h + 2*k\n",
            "",
        )
        code, out, _ = run("bc", "conjugates", element, "--format", "json")
        assert (code, json.loads(out)) == (0, {
            "schema": "1",
            "conj_i": {"w": "1/2", "x": "-3", "y": "-1", "z": "-2"},
            "conj_h": {"w": "1/2", "x": "3", "y": "1", "z": "-2"},
            "conj_ih": {"w": "1/2", "x": "-3", "y": "1", "z": "2"},
        })

    def test_bad_element_exits_two(self):
        code, _, err = run("bc", "mul", "1 + foo", "1")
        assert code == 2

    def test_wrong_arity_exits_two(self):
        code, _, _ = run("bc", "mul", "1")
        assert code == 2

    def test_unknown_flag_exits_two(self):
        code, _, _ = run("bc", "mul", "1", "1", "--frobnicate")
        assert code == 2


class TestMc:
    def test_mul(self):
        code, out, _ = run("mc", "--order", "2", "mul", "0,1,0,0", "0,0,1,0")
        assert code == 0
        assert out.strip() == "0,0,0,1"

    def test_split_json(self):
        code, out, _ = run(
            "mc", "--order", "3", "split", "1,0,0,0,0,0,0,0", "--format", "json"
        )
        payload = json.loads(out)
        assert len(payload["components"]) == 4
        assert all(c == {"re": "1", "im": "0"} for c in payload["components"])

    def test_split_of_signed_zeros_prints_unsigned_zero_parts(self):
        # -0.0 + 0 is 0.0: a zero imaginary part prints as 0, not -0
        assert run("mc", "--order", "2", "split", "0,-0.0,-0.0,1.5") == (
            0, "(-1.5,0)\n(1.5,0)\n", "",
        )

    def test_wrong_coefficient_count_exits_two(self):
        code, _, _ = run("mc", "--order", "2", "mul", "1,2", "3,4")
        assert code == 2

    def test_zero_divisor_test_of_zero_exits_one(self):
        assert run("mc", "--order", "2", "is-zero-divisor", "0,0,0,0") == (
            1, "", "error: zero divisor test is undefined at zero\n",
        )


class TestAlgebra:
    def test_table_choices_are_the_named_systems_in_order(self):
        def subparser(parser, name):
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return action.choices[name]

        table = subparser(subparser(cli.build_parser(), "algebra"), "table")
        system = next(a for a in table._actions if a.dest == "system")
        assert tuple(system.choices) == quadruple.SYSTEM_NAMES

    def test_tessarine_table_is_commutative_text(self):
        code, out, _ = run("algebra", "table", "tessarine")
        assert code == 0
        assert "normal: yes" in out

    def test_quaternion_json(self):
        code, out, _ = run("algebra", "table", "quaternion", "--format", "json")
        payload = json.loads(out)
        assert payload["normal"] is False
        assert payload["table"][1][2] == "c"    # ab = c
        assert payload["table"][2][1] == "-c"   # ba = -c

    def test_unknown_system_exits_two(self):
        code, _, _ = run("algebra", "table", "sedenion")
        assert code == 2


class TestPoly:
    def test_solve_reads_coefficient_file(self, tmp_path):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1\n0\n1\n", encoding="utf-8")
        code, out, _ = run(
            "poly", "solve", "--algebra", "bicomplex",
            "--coeffs", str(coeffs), "--format", "json",
        )
        payload = json.loads(out)
        assert payload["kind"] == "Finite"
        assert payload["counts"] == [2, 2]
        assert len(payload["roots"]) == 4
        assert payload["residuals"] == ["0", "0", "0", "0"]

    def test_repeated_exact_roots_come_back_exact(self, tmp_path):
        # 4096 (z - 9 + 10*i)**2 (z + (4 - i)/8)**4 (z - 1) in both split
        # components: 7 * 7 roots, each exact, with multiplicity
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text(REPEATED_ROOTS, encoding="utf-8")
        code, out, err = run(
            "poly", "solve", "--algebra", "bicomplex",
            "--coeffs", str(coeffs), "--format", "json",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["counts"] == [7, 7]
        assert payload["residuals"] == ["0"] * 49
        assert not any("." in v or "e" in v for r in payload["roots"] for v in r.values())
        roots = [tuple(Fraction(r[c]) for c in "wxyz") for r in payload["roots"]]
        # a root whose two components agree is that complex root
        assert roots.count((Fraction(-1, 2), Fraction(1, 8), 0, 0)) == 16
        assert roots.count((9, -10, 0, 0)) == 4
        assert roots.count((1, 0, 0, 0)) == 1

    def test_mc_algebra_selector(self, tmp_path):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0\n1,0,0,0,0,0,0,0\n")
        code, out, _ = run(
            "poly", "solve", "--algebra", "mc:3", "--coeffs", str(coeffs),
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["kind"] == "Finite"
        assert len(payload["roots"]) == 16

    def test_zero_polynomial_exits_one(self, tmp_path):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("0\n0\n", encoding="utf-8")
        code, _, err = run(
            "poly", "solve", "--algebra", "bicomplex", "--coeffs", str(coeffs)
        )
        assert code == 1

    def test_root_count_above_the_cap_exits_one_at_once(self, tmp_path):
        # order 5 at degree 3: 3**16 = 43046721 roots
        coeffs = tmp_path / "coeffs.txt"
        rows = [[c] + [0] * 31 for c in (-1, 0, 0, 1)]
        coeffs.write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run("poly", "solve", "--algebra", "mc:5", "--coeffs", str(coeffs))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "error: 43046721 roots exceed the cap of 65536 per solve\n"

    def test_nan_residual_exits_one(self, tmp_path):
        # two recombined roots overflow their residual to nan, which must
        # fail; the tolerance, 1e-9 * (1 + 1e200), stays finite
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1.0\n-1e200\n1.0\n", encoding="utf-8")
        code, out, err = run("poly", "solve", "--algebra", "bicomplex", "--coeffs", str(coeffs))
        assert (code, out) == (1, "")
        assert err == "error: recombined root fails substitution: residual nan > 1.000e+191\n"

    @pytest.mark.parametrize("algebra, pad", [("bicomplex", ""), ("mc:2", ",0,0,0")])
    @pytest.mark.parametrize("rows", [("1", "1e309", "1"), ("1e309", "1")], ids=["quadratic", "linear"])
    def test_overflowing_coefficient_exits_two_with_one_line(self, tmp_path, algebra, pad, rows):
        # a fresh process, so that a warning printed on the way would show in stderr
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("".join(row + pad + "\n" for row in rows), encoding="utf-8")
        done = python(RUN_CLI, "poly", "solve", "--algebra", algebra, "--coeffs", str(coeffs))
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == b"error: coefficients must be finite\n"

    def test_unknown_algebra_exits_two(self, tmp_path):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1\n1\n", encoding="utf-8")
        code, _, _ = run(
            "poly", "solve", "--algebra", "octonion", "--coeffs", str(coeffs)
        )
        assert code == 2


class TestBiq:
    def test_nullifier_product(self):
        code, out, _ = run(
            "biq", "mul", "(0,1) + (1,0)*k", "(0,-1) + (1,0)*k"
        )
        assert code == 0
        assert out.strip() == "(0,0)"

    def test_solve_quadratic_json(self):
        code, out, _ = run(
            "biq", "solve-quadratic", "--b", "(1,0)*i", "--c", "(1,0)*j",
            "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["solutions"]) == 6
        kinds = [s["type"] for s in payload["solutions"]]
        assert kinds.count("quaternion") == 2
        assert kinds.count("biquaternion") == 4
        assert all(float(s["residual"]) <= 1e-9 for s in payload["solutions"])

    def test_degenerate_spectrum_exits_one(self):
        code, _, err = run(
            "biq", "solve-quadratic", "--b", "0", "--c", "-1"
        )
        assert code == 1
        assert "not isolated" in err


class TestSurd:
    def test_horner_example_text(self):
        code, out, _ = run("surd", "analyze", "2*x + sqrt(x^2-7) = 5")
        assert code == 0
        assert "3*x^2 - 20*x + 32" in out
        assert "2/2" in out
        assert "IMPOSSIBLE" in out

    def test_json_shorthand_flag(self):
        code, out, _ = run("surd", "analyze", "2*x + sqrt(x^2-7) = 5", "--json")
        payload = json.loads(out)
        assert payload["order"] == "2/2"
        assert payload["congeners"][0]["status"] == "Impossible"
        assert payload["congeners"][1]["roots"] == ["8/3", "4"]

    def test_parse_error_exits_two(self):
        code, _, err = run("surd", "analyze", "2*x + sqrt(")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_integer_literals_print_as_unit_denominators_do(self, fmt):
        plain = run("surd", "analyze", "2*x + sqrt(x^2 - 7) = 5", "--format", fmt)
        fractions = run("surd", "analyze", "2/1*x + sqrt(1/1*x^2 - 7/1) = 5/1", "--format", fmt)
        assert plain[0] == 0
        assert fractions == plain

    def test_zero_denominator_exits_two(self):
        assert run("surd", "analyze", "x + sqrt(x) = 1/0") == (2, "", "error: Fraction(1, 0)\n")

    def test_vanishing_congener_product_exits_one(self):
        # (x - sqrt(x^2)) * (x + sqrt(x^2)) = x^2 - x^2 = 0
        assert run("surd", "analyze", "x - sqrt(x^2) = 0") == (
            1, "", "error: stock equation vanished: the congeners of x - sqrt(x^2) = 0 multiply to 0\n",
        )

    def test_numeric_root_zero_part_prints_unsigned(self):
        # x**4 - 1 has the numeric roots +-i; np.roots gives one a -0.0 real part
        code, out, _ = run("surd", "analyze", "x*sqrt(x^2) = 1")
        assert code == 0
        assert "root (0,1) -> congeners [] ambiguous" in out
        assert "root (0,-1) -> congeners [] ambiguous" in out
        code, out, _ = run("surd", "analyze", "x*sqrt(x^2) = 1", "--format", "json")
        assert code == 0
        values = [r["value"] for r in json.loads(out)["roots"]]
        assert values == ["-1", "1", "(0,1)", "(0,-1)"]


class TestLeadingMinus:
    """A value that starts with one '-' is read as a value, with the same
    bytes as after '--'; only the subcommand's own '-h' stays an option."""

    @pytest.mark.parametrize(
        "argv, at, expected",
        [
            (("bc", "mul", "-1/2", "1"), 2, "-1/2"),
            (("mc", "--order", "2", "add", "-1,2,3,4", "1,0,0,0"), 4, "0,2,3,4"),
            (("surd", "analyze", "-x+sqrt(x+2)=0"), 2, "root -1 -> congeners [1]"),
        ],
        ids=["bc", "mc", "surd"],
    )
    def test_value_matches_double_dash_form(self, argv, at, expected):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert expected in out.splitlines()
        assert run(*argv[:at], "--", *argv[at:]) == (code, out, err)

    def test_help_and_unknown_long_option_stay_options(self):
        code, out, _ = run("bc", "mul", "-h", "1")
        assert code == 0
        assert out.startswith("usage: hypercomplex bc")
        code, _, err = run("surd", "analyze", "x + sqrt(x) = 1", "--jsn")
        assert code == 2
        assert "unrecognized arguments: --jsn" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bc", "mul", "1 - 1*k", "1 + 1*k", "--format", "json"),
            ("algebra", "table", "coquaternion", "--format", "json"),
            ("surd", "analyze", "2*x + sqrt(x^2-7) = 5", "--json"),
            ("biq", "solve-quadratic", "--b", "(1,0)*i", "--c", "(1,0)*j",
             "--format", "json"),
        ],
    )
    def test_two_runs_produce_identical_bytes(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second


class TestCorpus:
    def test_shipped_corpus_passes(self):
        code, out, _ = run("corpus")
        assert code == 0
        assert "0 failed" in out

    def test_corrupted_expectation_fails_with_diff(self, tmp_path):
        case = {
            "schema": "1",
            "name": "deliberately wrong",
            "argv": ["bc", "mul", "1*i", "1*h", "--format", "json"],
            "expect": {
                "exit": 0,
                "json": {"schema": "1", "w": "0", "x": "0", "y": "0", "z": "2"},
            },
        }
        (tmp_path / "wrong.json").write_text(json.dumps(case), encoding="utf-8")
        code, out, _ = run("corpus", str(tmp_path))
        assert code == 1
        assert "FAIL" in out
        assert "$.z" in out

    def test_empty_directory_warns_and_exits_zero(self, tmp_path):
        code, out, _ = run("corpus", str(tmp_path))
        assert code == 0
        assert "0 cases" in out

    def test_missing_directory_exits_two(self, tmp_path):
        code, _, err = run("corpus", str(tmp_path / "nope"))
        assert code == 2

    def test_invalid_case_file_reported(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        code, out, _ = run("corpus", str(tmp_path))
        assert code == 1
        assert "invalid case file" in out


# error class -> the builtin base that callers may still catch it by
COMPUTATIONAL = {
    NotInvertible: ArithmeticError,
    ZeroPolynomial: ValueError,
    NoConvergence: RuntimeError,
    TooManyRoots: ValueError,
    NotComplanar: ValueError,
    DegenerateSpectrum: RuntimeError,
    ZeroInput: ValueError,
    OrderMismatch: ValueError,
    TableMismatch: ValueError,
    VanishedStock: ValueError,
}


class TestExitCodes:
    """main turns what a subcommand raises into its exit code and one
    stderr line; anything else propagates."""

    def run_raising(self, monkeypatch, exc):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_bc", handler)
        return run("bc", "norm", "1")

    def test_computational_errors_are_the_marker_subclasses(self):
        for module in pkgutil.iter_modules(hypercomplex.__path__):
            importlib.import_module(f"hypercomplex.{module.name}")
        found, todo = set(), [ComputationalError]
        while todo:
            subclasses = todo.pop().__subclasses__()
            found.update(subclasses)
            todo.extend(subclasses)
        assert found == set(COMPUTATIONAL)
        for error, builtin in COMPUTATIONAL.items():
            assert issubclass(error, builtin)
        for error in (ParseError, UnsupportedNesting, InvariantError):
            assert not issubclass(error, ComputationalError)

    @pytest.mark.parametrize("error", COMPUTATIONAL, ids=lambda e: e.__name__)
    def test_computational_errors_exit_one(self, monkeypatch, error):
        assert self.run_raising(monkeypatch, error("boom")) == (1, "", "error: boom\n")

    @pytest.mark.parametrize(
        "exc",
        [ParseError("boom", 0), ValueError("boom"), OSError("boom"), ZeroDivisionError("boom")],
        ids=lambda e: type(e).__name__,
    )
    def test_parse_and_usage_errors_exit_two(self, monkeypatch, exc):
        assert self.run_raising(monkeypatch, exc) == (2, "", f"error: {exc}\n")

    @pytest.mark.parametrize("error", [TypeError, KeyError, InvariantError, ArithmeticError])
    def test_other_errors_propagate(self, monkeypatch, error):
        with pytest.raises(error):
            self.run_raising(monkeypatch, error("boom"))

    def test_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()
