"""Workload ``cli``: every operation is one fresh ``python -m hypercomplex.cli``.

The console script is not needed: ``-m`` with ``src`` on ``PYTHONPATH``
runs the same ``main``.  One round is 100 calls (``CALLS``): ``bc``
(mul, decompose, inverse), ``mc`` (mul, split, is-zero-divisor),
``algebra table`` for the four named systems, ``poly solve`` over the
bicomplex and order-3 multicomplex algebras from generated coefficient
files, ``biq mul``, the classical ``biq solve-quadratic --b "(1,0)*i"
--c "(1,0)*j"``, ``surd analyze`` and the shipped ``corpus``, in both
``--format text`` and ``--format json``.  Elements are exact, with p/q
components as in ``wl_tower``; polynomials have chosen roots as in
``wl_roots``; surd equations are ``wl_surd`` equations with one or two
radicals of degree up to 4.

Outputs are parsed and checked with the same reference computations as the
in-process workloads.  Under ``--trace 1`` each call runs through
``cli_child.py``, which installs the tracer inside the child before
``main`` runs.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from pathlib import Path

from common import Op, rng_for, small_fraction
from oracle import biq_matrix, characters, close, cmul, element_from_characters, mat_mul, mat_norm, mat_sub, split_order_characters
from wl_roots import check_chosen, chosen_polynomial
from wl_surd import check_report, make_equation

HERE = Path(__file__).resolve().parent

# (call kind, calls per round).  Most calls cost one interpreter start
# and import; the twelve corpus runs, the slowest calls, hold the 90th
# percentile rank, so it does not rest on the noisiest of the rest.
CALLS = (
    ("bc.mul.json", 6), ("bc.mul.text", 4), ("bc.decompose.json", 4), ("bc.inverse.json", 4),
    ("mc.mul.json", 4), ("mc.mul.text", 4), ("mc.split.json", 4), ("mc.zero_divisor.json", 6),
    ("algebra.json", 4), ("algebra.text", 4),
    ("poly.bc.json", 10), ("poly.mc3.json", 4),
    ("biq.mul.json", 8), ("biq.mul.text", 4), ("biq.quadratic.json", 2),
    ("surd.json", 16),
    ("corpus", 12),
)
SYSTEMS = {  # name -> (a^2, b^2, commutative)
    "quaternion": (-1, -1, False),
    "tessarine": (-1, 1, True),
    "coquaternion": (-1, 1, False),
    "cotessarine": (1, 1, True),
}
BASIS = ("1", "a", "b", "c")


# -- text forms ---------------------------------------------------------------


def _frac(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def bc_text(coeffs) -> str:
    out = _frac(coeffs[0])
    for c, unit in zip(coeffs[1:], "ihk"):
        out += f" {'-' if c < 0 else '+'} {_frac(abs(c))}*{unit}"
    return out


def biq_text(pairs) -> str:
    return " + ".join(
        f"({_frac(re_)},{_frac(im)})" + ("" if unit == "" else f"*{unit}")
        for (re_, im), unit in zip(pairs, ("", "i", "j", "k"))
    )


_BC_TERM = re.compile(r"\s*([+-])?\s*([0-9/]+)(?:\*([ihk]))?")


def parse_bc_text(text: str) -> list:
    comps = {"": Fraction(0), "i": Fraction(0), "h": Fraction(0), "k": Fraction(0)}
    text = text.strip()
    if text == "0":
        return list(comps.values())
    pos = 0
    while pos < len(text):
        m = _BC_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read bicomplex output {text!r}")
        value = Fraction(m.group(2))
        comps[m.group(3) or ""] += -value if m.group(1) == "-" else value
        pos = m.end()
    return list(comps.values())


def parse_biq_text(text: str) -> list:
    comps = {"": (0, 0), "i": (0, 0), "j": (0, 0), "k": (0, 0)}
    for m in re.finditer(r"\(([-0-9/]+),([-0-9/]+)\)(?:\*([ijk]))?", text):
        comps[m.group(3) or ""] = (Fraction(m.group(1)), Fraction(m.group(2)))
    return list(comps.values())


def _pair(d: dict) -> tuple:
    return (_num(d["re"]), _num(d["im"]))


def _num(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


# -- checks -------------------------------------------------------------------


def _product_error(a, b, c) -> list:
    want = [cmul(x, y) for x, y in zip(characters(a), characters(b))]
    got = characters(c)
    return [] if all(close(g, w, 0) for g, w in zip(got, want)) else ["chi(a*b) != chi(a)*chi(b)"]


def check_table(system: str, rows: list, normal) -> list:
    sq_a, sq_b, commutative = SYSTEMS[system]

    def unit(s):
        return (-1, BASIS.index(s[1:])) if s.startswith("-") else (1, BASIS.index(s))

    table = [[unit(s) for s in row] for row in rows]

    def mul(x, y):
        s, k = table[x[1]][y[1]]
        return (x[0] * y[0] * s, k)

    errors = []
    units = [(1, k) for k in range(4)]
    if any(mul(units[0], u) != u or mul(u, units[0]) != u for u in units):
        errors.append("1 is not the identity")
    if mul(units[1], units[1]) != (sq_a, 0) or mul(units[2], units[2]) != (sq_b, 0):
        errors.append("generator squares do not match the signature")
    if mul(units[1], units[2]) != (1, 3):
        errors.append("ab != c")
    if any(mul(mul(x, y), z) != mul(x, mul(y, z)) for x in units for y in units for z in units):
        errors.append("table is not associative")
    is_comm = all(mul(x, y) == mul(y, x) for x in units for y in units)
    if is_comm != commutative or (normal is not None and normal != commutative):
        errors.append(f"commutativity {is_comm}, normal flag {normal}, expected {commutative}")
    return errors


def parse_table_text(text: str) -> tuple:
    lines = text.strip().splitlines()
    rows = [line.split()[1:] for line in lines[1:5]]
    return rows, lines[5].strip() == "normal: yes"


def check_quadratic(payload: dict) -> list:
    b = biq_matrix([(0, 0), (1, 0), (0, 0), (0, 0)])
    c = biq_matrix([(0, 0), (0, 0), (1, 0), (0, 0)])
    sols = payload["solutions"]
    errors = [] if len(sols) == 6 else [f"{len(sols)} solutions, expected 6"]
    for s in sols:
        q = biq_matrix([_pair(s[f"c{m}"]) for m in range(4)])
        residual = mat_norm(mat_sub(mat_sub(mat_mul(q, q), mat_mul(q, b)), c))
        if residual > 1e-9 * (1 + mat_norm(q) ** 2):
            errors.append(f"solution residual {residual:.2e} in the 2x2 matrix form")
    if sum(s["type"] == "quaternion" for s in sols) != 2:
        errors.append("expected two real-quaternion solutions")
    return errors


def check_surd_json(eq: dict, payload: dict) -> list:
    stock = [Fraction(c) for c in payload["stock"]["coeffs"]]
    signs = [c["signs"] for c in payload["congeners"]]
    roots = []
    for r in payload["roots"]:
        v = r["value"]
        if v.startswith("("):
            re_, im = v[1:-1].split(",")
            value = complex(float(re_), float(im))
        else:
            value = Fraction(v) if r["exact"] else float(v)
        roots.append((value, r["assigned"], r["ambiguous"]))
    return check_report(eq, stock, signs, roots)


# -- inputs -------------------------------------------------------------------


def _exact(rng, n: int) -> list:
    return [small_fraction(rng) for _ in range(n)]


def build(seed: int) -> list:
    """Specs: (kind, argv, check(stdout) -> errors, files {name: text})."""
    rng = rng_for(seed, "cli")
    specs = []
    systems = list(SYSTEMS)
    for kind, count in CALLS:
        for j in range(count):
            files = {}
            if kind.startswith("bc."):
                a, b = _exact(rng, 4), _exact(rng, 4)
                op, fmt = kind.split(".")[1:]
                if op == "mul":
                    argv = ["bc", "mul", bc_text(a), bc_text(b)]
                    if fmt == "json":
                        check = lambda out, a=a, b=b: _product_error(a, b, [Fraction(json.loads(out)[k]) for k in "wxyz"])  # noqa: E731
                    else:
                        check = lambda out, a=a, b=b: _product_error(a, b, parse_bc_text(out))  # noqa: E731
                elif op == "decompose":
                    argv = ["bc", "decompose", bc_text(a)]
                    check = lambda out, a=a: [] if [_pair(json.loads(out)[z]) for z in ("z1", "z2")] == split_order_characters(a, 2) else ["decompose"]  # noqa: E731
                else:
                    argv = ["bc", "inverse", bc_text(a)]

                    def check(out, a=a):
                        inv = [Fraction(json.loads(out)[k]) for k in "wxyz"]
                        ok = all(cmul(x, y) == (1, 0) for x, y in zip(characters(inv), characters(a)))
                        return [] if ok else ["chi(a.inverse()*a) != 1"]
            elif kind.startswith("mc."):
                op, fmt = kind.split(".")[1:]
                n = 4 if fmt == "text" else 3
                a, b = _exact(rng, 1 << n), _exact(rng, 1 << n)
                text = lambda v: ",".join(_frac(x) for x in v)  # noqa: E731
                # "--" ends the options: an element may start with "-"
                head = ["mc", "--order", str(n), "--format", fmt]
                if op == "mul":
                    argv = head + ["mul", "--", text(a), text(b)]
                    if fmt == "json":
                        check = lambda out, a=a, b=b: _product_error(a, b, [Fraction(c) for c in json.loads(out)["coeffs"]])  # noqa: E731
                    else:
                        check = lambda out, a=a, b=b: _product_error(a, b, [Fraction(c) for c in out.strip().split(",")])  # noqa: E731
                elif op == "split":
                    argv = head + ["split", "--", text(a)]
                    check = lambda out, a=a, n=n: [] if [_pair(z) for z in json.loads(out)["components"]] == split_order_characters(a, n) else ["split"]  # noqa: E731
                else:
                    vanishing = j % 2 == 0
                    if vanishing:
                        values = [(small_fraction(rng), small_fraction(rng)) for _ in range(1 << (n - 1))]
                        values[rng.randrange(len(values))] = (Fraction(0), Fraction(0))
                        a = element_from_characters(values)
                    argv = head + ["is-zero-divisor", "--", text(a)]
                    check = lambda out, v=vanishing: [] if json.loads(out)["zero_divisor"] is v else [f"zero divisor flag, expected {v}"]  # noqa: E731
            elif kind.startswith("algebra."):
                system = systems[j % len(systems)]
                fmt = kind.split(".")[1]
                argv = ["algebra", "table", system]
                if fmt == "json":
                    check = lambda out, s=system: check_table(s, json.loads(out)["table"], json.loads(out)["normal"])  # noqa: E731
                else:
                    check = lambda out, s=system: check_table(s, *parse_table_text(out))  # noqa: E731
            elif kind.startswith("poly."):
                if kind == "poly.bc.json":
                    coeffs, chosen = chosen_polynomial(rng, 2, [3, 3])
                    files["coeffs.txt"] = "\n".join(bc_text(c.coeffs) for c in coeffs) + "\n"
                    argv = ["poly", "solve", "--algebra", "bicomplex", "--coeffs", "{dir}/coeffs.txt"]
                    keys = "wxyz"
                else:
                    coeffs, chosen = chosen_polynomial(rng, 3, [2] * 4)
                    files["coeffs.txt"] = "\n".join(",".join(_frac(x) for x in c.coeffs) for c in coeffs) + "\n"
                    argv = ["poly", "solve", "--algebra", "mc:3", "--coeffs", "{dir}/coeffs.txt"]
                    keys = None

                def check(out, chosen=chosen, keys=keys):
                    payload = json.loads(out)
                    if keys:
                        roots = [tuple(Fraction(r[k]) for k in keys) for r in payload["roots"]]
                    else:
                        roots = [tuple(Fraction(c) for c in r["coeffs"]) for r in payload["roots"]]
                    residuals = [Fraction(r) for r in payload["residuals"]]
                    return check_chosen(payload["kind"], roots, residuals, chosen)
            elif kind.startswith("biq.mul"):
                a = [(small_fraction(rng), small_fraction(rng)) for _ in range(4)]
                b = [(small_fraction(rng), small_fraction(rng)) for _ in range(4)]
                argv = ["biq", "mul", biq_text(a), biq_text(b)]
                fmt = kind.split(".")[2]

                def check(out, a=a, b=b, fmt=fmt):
                    if fmt == "json":
                        got = [_pair(json.loads(out)[f"c{m}"]) for m in range(4)]
                    else:
                        got = parse_biq_text(out)
                    diff = mat_sub(biq_matrix(got), mat_mul(biq_matrix(a), biq_matrix(b)))
                    return [] if all(v == 0 for row in diff for z in row for v in z) else ["rho(a*b) != rho(a)*rho(b)"]
            elif kind == "biq.quadratic.json":
                argv = ["biq", "solve-quadratic", "--b", "(1,0)*i", "--c", "(1,0)*j"]
                check = lambda out: check_quadratic(json.loads(out))  # noqa: E731
            elif kind == "surd.json":
                eq = make_equation(rng, 1 + j % 2, 1 + j % 4)
                argv = ["surd", "analyze", eq["text"]]
                check = lambda out, eq=eq: check_surd_json(eq, json.loads(out))  # noqa: E731
            else:
                argv = ["corpus"]
                check = lambda out: [] if out.strip().splitlines()[-1].endswith(" 0 failed") else ["corpus reports failures"]  # noqa: E731
            if kind.startswith("mc."):
                pass  # format given before "--"
            elif kind == "surd.json" and j % 8 == 7:
                argv += ["--json"]
            elif kind.endswith(".json"):
                argv += ["--format", "json"]
            elif kind.endswith(".text"):
                argv += ["--format", "text"]
            specs.append((kind, argv, check, files))
    return specs


class CliError(RuntimeError):
    """The CLI exited with a nonzero code."""


def operations(specs, ctx) -> list:
    ops = []
    for index, (kind, argv, check, files) in enumerate(specs):
        directory = ctx.workdir / f"call{index}"
        if files:
            directory.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (directory / name).write_text(text, encoding="utf-8")
        args = [a.replace("{dir}", str(directory)) for a in argv]

        def run(args=args, index=index):
            if ctx.tracing:
                spans = ctx.workdir / f"spans{index}.json"
                t0 = time.perf_counter()
                code, out, err = ctx.run_child([str(HERE / "cli_child.py"), str(spans), *args])
                wall = time.perf_counter() - t0
                if spans.exists():
                    record = json.loads(spans.read_text(encoding="utf-8"))
                    record["wall_s"] = wall
                    ctx.child_traces.append(record)
                    spans.unlink()
            else:
                code, out, err = ctx.run_child(["-m", "hypercomplex.cli", *args])
            ctx.child_rss_kb = max(ctx.child_rss_kb, ctx.last_child_rss_kb)
            if code != 0:
                raise CliError(f"exit code {code}: {err.strip()[-300:]}")
            return out

        ops.append(Op(kind, run, check))
    return ops
