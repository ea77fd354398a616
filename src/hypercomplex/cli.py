"""Batch command line for every algebra in the package.

Subcommands: bc (bicomplex), mc (multicomplex), algebra (quadruple tables),
poly (polynomial solving), biq (biquaternions), surd (congeneric surd
equations), corpus (golden-case runner).  Output is deterministic: floats
print at 17 significant digits, exact rationals print as p/q, roots are
sorted lexicographically by their split components, and every JSON payload
carries a top-level ``"schema": "1"``.

Exit codes: 0 success, 1 computational error (a
``scalars.ComputationalError`` such as not invertible, degenerate spectrum
or no convergence, or a corpus mismatch), 2 parse or usage error.

A call imports only the algebra modules its subcommand runs (``bc mul``
loads ``scalars`` and ``bicomplex``; ``surd analyze`` loads ``scalars``,
``ratpoly`` and ``surd``), and a process builds the parser once.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from .scalars import ComputationalError, format_scalar

SCHEMA = "1"


class _SubcommandParser(argparse.ArgumentParser):
    """Reads an argument such as ``-1/2`` or ``-x+sqrt(x)=0`` as a value unless
    it starts with ``--`` or with one of its single-dash options (``-h``)."""

    def _parse_optional(self, arg_string):
        shorts = [o for o in self._option_string_actions if not o.startswith("--")]
        if arg_string.startswith(("--", *shorts)):
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call (the corpus runner calls ``main`` once per case), so callers must
    not change it."""
    parser = argparse.ArgumentParser(
        prog="hypercomplex",
        description="Exact computer algebra for bicomplex/tessarine numbers, "
        "the multicomplex tower, quadruple algebras, biquaternions, and "
        "congeneric surd equations.",
        epilog="An element or equation may start with '-', as in "
        "'bc mul -1/2 1'; one that starts with '-h' needs '--' before it.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("bc", help="bicomplex (tessarine) arithmetic")
    p.add_argument(
        "op",
        choices=["add", "mul", "decompose", "ideal", "norm", "inverse", "conjugates"],
    )
    p.add_argument("elements", nargs="+", help="elements like '1 - 1*k' or '1/2 + 3*i'")
    _add_format(p)

    p = sub.add_parser("mc", help="multicomplex tower arithmetic")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("op", choices=["add", "mul", "split", "is-zero-divisor"])
    p.add_argument(
        "elements",
        nargs="+",
        help="2**N comma-separated coefficients in subset-lexicographic order "
        "(mask bit r <-> unit i_{r+1}; e.g. order 2: 1,i1,i2,i1*i2)",
    )
    _add_format(p)

    p = sub.add_parser("algebra", help="quadruple-algebra Cayley tables")
    algebra_sub = p.add_subparsers(dest="algebra_op", required=True)
    t = algebra_sub.add_parser("table", help="print a derived 4x4 table")
    # quadruple.SYSTEM_NAMES, written out so that parsing loads no algebra
    t.add_argument("system", choices=["quaternion", "tessarine", "coquaternion", "cotessarine"])
    _add_format(t)

    p = sub.add_parser("poly", help="polynomial roots over split algebras")
    poly_sub = p.add_subparsers(dest="poly_op", required=True)
    s = poly_sub.add_parser("solve")
    s.add_argument(
        "--algebra",
        required=True,
        help="'bicomplex' or 'mc:N' for the order-N multicomplex algebra",
    )
    s.add_argument(
        "--coeffs",
        required=True,
        help="file with one element per line, degree ascending",
    )
    _add_format(s)

    p = sub.add_parser("biq", help="Hamilton biquaternions")
    biq_sub = p.add_subparsers(dest="biq_op", required=True)
    m = biq_sub.add_parser("mul")
    m.add_argument("elements", nargs=2, help="elements like '(0,1) + (1,0)*k'")
    _add_format(m)
    q = biq_sub.add_parser("solve-quadratic", help="all isolated q^2 = q*b + c")
    q.add_argument("--b", required=True)
    q.add_argument("--c", required=True)
    _add_format(q)

    p = sub.add_parser("surd", help="congeneric surd equation analysis")
    surd_sub = p.add_subparsers(dest="surd_op", required=True)
    a = surd_sub.add_parser("analyze")
    a.add_argument("equation", help="e.g. '2*x + sqrt(x^2 - 7) = 5'")
    a.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_format(a)

    p = sub.add_parser("corpus", help="run a directory of golden case files")
    p.add_argument("path", nargs="?", default=None, help="defaults to the shipped corpus")

    return parser


def _add_format(parser):
    parser.add_argument("--format", choices=["text", "json"], default="text")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "corpus":
            return _cmd_corpus(args)
        print(_dispatch(args))
        return 0
    except Exception as exc:
        if isinstance(exc, ComputationalError):
            code = 1
        elif isinstance(exc, (ValueError, OSError, ZeroDivisionError)):
            code = 2
        else:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def _dispatch(args) -> str:
    if args.command == "bc":
        return _cmd_bc(args)
    if args.command == "mc":
        return _cmd_mc(args)
    if args.command == "algebra":
        return _cmd_algebra(args)
    if args.command == "poly":
        return _cmd_poly(args)
    if args.command == "biq":
        return _cmd_biq(args)
    if args.command == "surd":
        return _cmd_surd(args)
    raise AssertionError(f"unhandled command {args.command}")


def _emit(payload: dict, text: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"schema": SCHEMA, **payload}, sort_keys=True)
    return text


def _complex_json(z) -> dict:
    return {"re": format_scalar(z.real), "im": format_scalar(z.imag)}


def _complex_text(z) -> str:
    return f"({format_scalar(z.real)},{format_scalar(z.imag)})"


# -- bc -----------------------------------------------------------------


def _cmd_bc(args) -> str:
    from .bicomplex import Bicomplex

    n_args = {"add": 2, "mul": 2}.get(args.op, 1)
    if len(args.elements) != n_args:
        raise ValueError(f"bc {args.op} takes exactly {n_args} element(s)")
    elems = [Bicomplex.parse(e) for e in args.elements]
    if args.op in ("add", "mul"):
        result = elems[0] + elems[1] if args.op == "add" else elems[0] * elems[1]
        return _emit(result.to_json(), str(result), args.format)
    a = elems[0]
    if args.op == "decompose":
        z1, z2 = a.decompose()
        return _emit(
            {"z1": _complex_json(z1), "z2": _complex_json(z2)},
            f"Z  {_complex_text(z1)}\nZ' {_complex_text(z2)}",
            args.format,
        )
    if args.op == "ideal":
        tag = a.ideal().value
        return _emit({"ideal": tag}, tag, args.format)
    if args.op == "norm":
        return _emit(
            {"norm": format_scalar(a.norm()), "norm_sq": format_scalar(a.norm_sq())},
            format_scalar(a.norm()),
            args.format,
        )
    if args.op == "inverse":
        result = a.inverse()
        return _emit(result.to_json(), str(result), args.format)
    if args.op == "conjugates":
        ci, ch, cih = a.conjugates()
        return _emit(
            {"conj_i": ci.to_json(), "conj_h": ch.to_json(), "conj_ih": cih.to_json()},
            f"conj_i  {ci}\nconj_h  {ch}\nconj_ih {cih}",
            args.format,
        )
    raise AssertionError(args.op)


# -- mc -----------------------------------------------------------------


def _cmd_mc(args) -> str:
    from .multicomplex import Multicomplex

    n_args = {"add": 2, "mul": 2}.get(args.op, 1)
    if len(args.elements) != n_args:
        raise ValueError(f"mc {args.op} takes exactly {n_args} element(s)")
    elems = [Multicomplex.parse(e, args.order) for e in args.elements]
    if args.op in ("add", "mul"):
        result = elems[0] + elems[1] if args.op == "add" else elems[0] * elems[1]
        return _emit(result.to_json(), str(result), args.format)
    a = elems[0]
    if args.op == "split":
        comps = a.split()
        return _emit(
            {"components": [_complex_json(z) for z in comps]},
            "\n".join(_complex_text(z) for z in comps),
            args.format,
        )
    if args.op == "is-zero-divisor":
        flag = a.is_zero_divisor()
        return _emit({"zero_divisor": flag}, "true" if flag else "false", args.format)
    raise AssertionError(args.op)


# -- algebra -------------------------------------------------------------


def _cmd_algebra(args) -> str:
    from . import quadruple

    table = quadruple.named_table(args.system)
    rows = table.rows_str()
    payload = {
        "system": args.system,
        "signature": {"sq_a": table.signature.sq_a, "sq_b": table.signature.sq_b},
        "normal": quadruple.is_normal(table),
        "table": rows,
    }
    width = max(len(s) for row in rows for s in row)
    header = "    " + " ".join(name.rjust(width) for name in quadruple.BASIS_NAMES)
    lines = [header]
    for name, row in zip(quadruple.BASIS_NAMES, rows):
        lines.append(f"{name:>3} " + " ".join(s.rjust(width) for s in row))
    lines.append(f"normal: {'yes' if payload['normal'] else 'no'}")
    return _emit(payload, "\n".join(lines), args.format)


# -- poly -----------------------------------------------------------------


def _cmd_poly(args) -> str:
    from . import polysolve
    from .bicomplex import Bicomplex
    from .multicomplex import Multicomplex

    lines = [
        line.strip()
        for line in Path(args.coeffs).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if args.algebra == "bicomplex":
        poly = polysolve.BicomplexPoly(tuple(Bicomplex.parse(l) for l in lines))
        roots = polysolve.solve(poly)
    elif args.algebra.startswith("mc:"):
        order = int(args.algebra.split(":", 1)[1])
        coeffs = [Multicomplex.parse(l, order) for l in lines]
        roots = polysolve.mc_solve(coeffs, order)
    else:
        raise ValueError(f"unknown algebra {args.algebra!r}; use 'bicomplex' or 'mc:N'")

    if roots.kind == "InfiniteFamily":
        fam = roots.family
        payload = {
            "kind": roots.kind,
            "counts": list(roots.counts),
            "free_components": list(fam.free_components),
            "constrained_roots": {
                str(i): [_complex_json(z) for z in zs]
                for i, zs in sorted(fam.constrained_roots.items())
            },
        }
        text = (
            f"InfiniteFamily: components {list(fam.free_components)} free; "
            + "; ".join(
                f"component {i} in {{{', '.join(_complex_text(z) for z in zs)}}}"
                for i, zs in sorted(fam.constrained_roots.items())
            )
        )
        return _emit(payload, text, args.format)

    payload = {
        "kind": roots.kind,
        "counts": list(roots.counts),
        "roots": [r.to_json() for r in roots.roots],
        "residuals": [format_scalar(r) for r in roots.residuals],
    }
    text_lines = [f"{roots.kind}: {len(roots.roots)} roots, counts {list(roots.counts)}"]
    for r, res in zip(roots.roots, roots.residuals):
        text_lines.append(f"  {r}   (residual {format_scalar(res)})")
    return _emit(payload, "\n".join(text_lines), args.format)


# -- biq -----------------------------------------------------------------


def _cmd_biq(args) -> str:
    from . import biquaternion as bq

    if args.biq_op == "mul":
        a = bq.Biquaternion.parse(args.elements[0])
        b = bq.Biquaternion.parse(args.elements[1])
        result = a * b
        return _emit(result.to_json(), str(result), args.format)
    if args.biq_op == "solve-quadratic":
        b = bq.Biquaternion.parse(args.b)
        c = bq.Biquaternion.parse(args.c)
        solutions = bq.solve_quadratic(b, c)
        items = []
        text_lines = [f"{len(solutions)} isolated solutions"]
        for s in solutions:
            residual = (s * s - s * b - c).norm()
            kind = "quaternion" if s.is_real_quaternion() else "biquaternion"
            entry = s.to_json()
            entry["residual"] = format_scalar(residual)
            entry["type"] = kind
            items.append(entry)
            text_lines.append(f"  {s}   [{kind}, residual {format_scalar(residual)}]")
        return _emit({"solutions": items}, "\n".join(text_lines), args.format)
    raise AssertionError(args.biq_op)


# -- surd -----------------------------------------------------------------


def _cmd_surd(args) -> str:
    from . import ratpoly as rp
    from . import surd

    fmt = "json" if args.json else args.format
    eq = surd.parse_surd(args.equation)
    report = surd.classify_roots(eq)
    payload = {
        "equation": str(eq),
        "stock": {
            "coeffs": [format_scalar(c) for c in report.stock],
            "degree": report.order[0],
        },
        "order": report.order_str,
        "congeners": [
            {
                "signs": list(st.signs),
                "status": "Possible" if st.possible else "Impossible",
                "roots": [_root_value_str(v) for v in st.roots],
            }
            for st in report.congeners
        ],
        "roots": [
            {
                "value": _root_value_str(r.value),
                "exact": r.exact,
                "assigned": list(r.assigned),
                "ambiguous": r.ambiguous,
            }
            for r in report.roots
        ],
    }
    text_lines = [
        f"equation: {eq}",
        f"stock:    {rp.to_str(report.stock)} = 0   (degree {report.order[0]})",
        f"order:    {report.order_str}",
    ]
    for st in report.congeners:
        signs = " ".join("+" if s > 0 else "-" for s in st.signs)
        status = "possible" if st.possible else "IMPOSSIBLE"
        roots = ", ".join(_root_value_str(v) for v in st.roots) or "-"
        text_lines.append(f"congener [{signs}]: {status}   roots: {roots}")
    for r in report.roots:
        flags = " ambiguous" if r.ambiguous else ""
        text_lines.append(
            f"root {_root_value_str(r.value)} -> congeners {list(r.assigned)}{flags}"
        )
    return _emit(payload, "\n".join(text_lines), fmt)


def _root_value_str(value) -> str:
    if isinstance(value, complex):
        return f"({_root_value_str(value.real)},{_root_value_str(value.imag)})"
    if isinstance(value, float):
        value += 0.0  # a numeric root's zero part prints as 0, never -0
    return format_scalar(value)


# -- corpus ----------------------------------------------------------------


def _cmd_corpus(args) -> int:
    if args.path is None:
        from importlib.resources import files

        directory = Path(str(files("hypercomplex") / "corpus"))
    else:
        directory = Path(args.path)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2

    cases = sorted(directory.glob("*.json"))
    if not cases:
        print(f"warning: 0 cases in {directory}")
        return 0
    # Every subcommand's modules, loaded before the first case and so before
    # numpy: loaded between cases, after it, they raised the peak RSS by 1 MB.
    from . import biquaternion, polysolve, quadruple, surd  # noqa: F401

    failures = 0
    for case_path in cases:
        try:
            ok, detail = _run_case(case_path)
        except Exception as exc:  # malformed case file
            ok, detail = False, f"invalid case file: {exc}"
        if ok:
            print(f"ok   {case_path.name}")
        else:
            failures += 1
            print(f"FAIL {case_path.name}: {detail}")
    print(f"{len(cases)} cases, {failures} failed")
    return 1 if failures else 0


def _run_case(case_path: Path) -> tuple[bool, str]:
    case = json.loads(case_path.read_text(encoding="utf-8"))
    argv = list(case["argv"])
    if argv and argv[0] == "corpus":
        return False, "corpus cases may not invoke the corpus runner"
    expect = case.get("expect", {})
    tolerance = float(case.get("tolerance", 0.0))

    with tempfile.TemporaryDirectory() as tmp:
        for name, content in case.get("files", {}).items():
            (Path(tmp) / name).write_text(content, encoding="utf-8")
        argv = [token.replace("$DIR", tmp) for token in argv]
        buffer, errors = io.StringIO(), io.StringIO()
        with redirect_stdout(buffer), redirect_stderr(errors):
            code = main(argv)
        output = buffer.getvalue()

    want_code = int(expect.get("exit", 0))
    if code != want_code:
        detail = errors.getvalue().strip()
        return False, f"exit code {code}, expected {want_code}" + (
            f" ({detail})" if detail else ""
        )
    if "json" in expect:
        try:
            got = json.loads(output)
        except json.JSONDecodeError:
            return False, f"output is not JSON: {output!r}"
        mismatch = _diff_json(expect["json"], got, tolerance, path="$")
        if mismatch:
            return False, mismatch
    if "text" in expect:
        if output.strip() != str(expect["text"]).strip():
            return False, f"text output {output.strip()!r} != {str(expect['text']).strip()!r}"
    return True, ""


def _diff_json(expected, actual, tolerance: float, path: str):
    """First mismatch between two JSON trees, or '' when equivalent.

    With tolerance 0 the comparison is exact; otherwise leaves that parse
    as numbers are compared within |a-b| <= tol*(1+|b|).
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual} != {sorted(expected)}"
        for key in expected:
            d = _diff_json(expected[key], actual[key], tolerance, f"{path}.{key}")
            if d:
                return d
        return ""
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: length {len(actual) if isinstance(actual, list) else actual} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            d = _diff_json(e, a, tolerance, f"{path}[{i}]")
            if d:
                return d
        return ""
    if tolerance > 0:
        e_num, a_num = _as_number(expected), _as_number(actual)
        if e_num is not None and a_num is not None:
            if abs(a_num - e_num) <= tolerance * (1 + abs(e_num)):
                return ""
            return f"{path}: {actual} differs from {expected} beyond tolerance {tolerance}"
    if expected != actual:
        return f"{path}: {actual!r} != {expected!r}"
    return ""


def _as_number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            try:
                return float(value)
            except ValueError:
                return None
    return None


if __name__ == "__main__":
    sys.exit(main())
