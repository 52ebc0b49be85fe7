"""Command-line front end.

Exit codes: 0 success, 1 verification failure (an inequality violated
beyond tolerance), 2 usage or input error, 3 internal error (an unexpected
exception).  Exits 2 and 3 print one `error:` line on stderr and nothing on
stdout; an argument the action does not read is a usage error.  Output is
JSON on stdout unless --csv or `body svg` is given; identical arguments and
seed produce byte-identical output.  Each command returns its exit code and its output
lines, and `run` writes them to stdout or --out once the command has
returned, so a command that fails writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bodies, inequalities, lifted, rkhs
from .bodies import PI, Body
from .errors import InvalidInputError, NumericError, ZonalgError
from .lifted import LiftedVector


def _dumps(obj) -> str:
    """One output line: the JSON text of obj and a newline; a NaN or infinite value is an error, not output."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"result is not finite: {exc}") from exc


def _csv(rows) -> list[str]:
    """CSV lines of a 2-D float array, one per row, each entry as repr writes it; NaN or inf is an error.

    Each distinct bit pattern (so 0.0 and -0.0 apart) is formatted once: the
    patterns are sorted once, the first of each run kept, and every entry
    found among those by binary search."""
    arr = np.ascontiguousarray(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise NumericError("result is not finite")
    bits = arr.view(np.int64)
    distinct = np.sort(bits, axis=None)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    # row by row: one list of a row's strings at a time stays in cache
    return [",".join(text[row].tolist()) + "\n" for row in np.searchsorted(distinct, bits)]


# --- JSON wire format: the one reader and writer --------------------------


def _read(path: str, what: str, build):
    """build(obj) for the JSON value obj in the file at path; a file that is
    not JSON, or a value that build cannot take, is an InvalidInputError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not text, not JSON, too many digits or nested too deep
            raise InvalidInputError(f"invalid JSON: {exc}") from exc
    try:
        return build(obj)
    except KeyError as exc:
        raise InvalidInputError(f"{what} JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} JSON malformed: {exc}") from exc


def _number(value) -> float:
    """A JSON number as a float; a boolean, string or other value is a TypeError."""
    if type(value) not in (int, float):  # json.loads gives exactly these; bool is not one
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _body(obj) -> Body:
    return bodies.body([(_number(d["angle"]), _number(d["d"])) for d in obj["diangles"]], _number(obj["disc"]))


def _read_body(path: str) -> Body:
    return _read(path, "body", _body)


def _read_lifted(path: str) -> LiftedVector:
    return _read(path, "lifted vector", lambda obj: lifted.lift(_body(obj["plus"]), _body(obj["minus"])))


def _read_width_function(path: str) -> tuple[list, list]:
    return _read(path, "width function", lambda obj: tuple([_number(t) for t in obj[k]] for k in ("nodes", "values")))


def _body_dict(a: Body) -> dict:
    pairs = zip(a.angles.tolist(), a.lengths.tolist())
    return {"diangles": [{"angle": t, "d": h} for t, h in pairs], "disc": a.disc_radius}


def _lifted_dict(x: LiftedVector) -> dict:
    return {"plus": _body_dict(x.plus), "minus": _body_dict(x.minus)}


# --- body ----------------------------------------------------------------


def _body_stats(a: Body) -> dict:
    return {
        "area": bodies.area(a),
        "perimeter": bodies.perimeter(a),
        "num_diangles": len(a.angles),
        "disc": a.disc_radius,
        "support_max": bodies.sup_norm(a),
    }


def body_svg(a: Body) -> str:
    """Render a body: circle for a disc, polygon for a zonogon, rounded path otherwise."""
    thetas = np.linspace(0.0, 2 * PI, 256, endpoint=False)
    radius = float(np.max(bodies.support_many(a, thetas))) or 1.0
    half = 1.05 * radius
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
        f'viewBox="{-half:.6g} {-half:.6g} {2 * half:.6g} {2 * half:.6g}">\n'
        '<g transform="scale(1,-1)" fill="#9ecae1" stroke="#08519c" '
        f'stroke-width="{half / 200:.6g}">\n'
    )
    r = a.disc_radius
    if not len(a.angles):
        shape = f'<circle cx="0" cy="0" r="{max(r, half / 400):.9g}"/>\n'
    else:
        verts = bodies.vertices(Body(a.angles, a.lengths)).tolist()
        if r == 0.0:
            pts = " ".join(f"{x:.9g},{y:.9g}" for x, y in verts)
            shape = f'<polygon points="{pts}"/>\n'
        else:
            # Each edge pushed out by r along its normal; an arc joins it to the next.
            starts, ends = [], []
            for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
                ex, ey = qx - px, qy - py
                norm = math.hypot(ex, ey)
                nx, ny = ey / norm, -ex / norm
                starts.append(f"{px + r * nx:.9g} {py + r * ny:.9g}")
                ends.append(f"{qx + r * nx:.9g} {qy + r * ny:.9g}")
            cmds = [f"M {starts[0]}"]
            for end, start in zip(ends, starts[1:] + starts[:1]):
                cmds += [f"L {end}", f"A {r:.9g} {r:.9g} 0 0 1 {start}"]
            shape = f'<path d="{" ".join(cmds)} Z"/>\n'
    svg = header + shape + "</g>\n</svg>\n"
    if "inf" in svg or "nan" in svg:  # a non-finite number; no tag or attribute name holds these
        raise NumericError("result is not finite")
    return svg


def _polygonize(a: Body, n: int) -> Body:
    """a with its disc replaced by bodies.disc_polygon(r, n); a itself when n is 0 or a has no disc."""
    if a.disc_radius > 0 and n:
        return bodies.minkowski_add(Body(a.angles, a.lengths), bodies.disc_polygon(a.disc_radius, n))
    return a


def _cmd_body(args) -> tuple[int, list[str]]:
    a = _read_body(args.file)
    if args.action == "stats":
        return 0, [_dumps(_body_stats(a))]
    if args.action == "vertices":
        return 0, [_dumps({"vertices": bodies.vertices(_polygonize(a, args.polygonize_disc)).tolist()})]
    return 0, [body_svg(a)]


# --- lift ----------------------------------------------------------------


def _lift_stats(x: LiftedVector) -> dict:
    return {
        "measure": lifted.measure_ext(x),
        "perimeter": lifted.perimeter_ext(x),
        "deficit": lifted.deficit(x),
        "norm": lifted.norm(x),
        "norm_c": lifted.norm_c(x),
        "norm_bp": lifted.norm_bp(x),
    }


def _cmd_lift(args) -> tuple[int, list[str]]:
    if args.action == "stats":
        obj = _lift_stats(_read_lifted(args.file))
    elif args.action == "add":
        obj = _lifted_dict(lifted.add(_read_lifted(args.file), _read_lifted(args.other)))
    elif args.action == "scale":
        obj = _lifted_dict(lifted.scale_real(_read_lifted(args.file), args.value))
    else:  # eval
        obj = {"phi": args.value, "value": rkhs.evaluate(_read_lifted(args.file), args.value)}
    return 0, [_dumps(obj)]


# --- check ---------------------------------------------------------------


def _cmd_check(args) -> tuple[int, list[str]]:
    result = inequalities.campaign(args.inequality, args.trials, args.seed, args.max_diangles)
    report = {"inequality": args.inequality, "trials": args.trials, "seed": args.seed, **result}
    return 1 if result["violations"] else 0, [_dumps(report)]


# --- reduce --------------------------------------------------------------


def _cmd_reduce(args) -> tuple[int, list[str]]:
    x = _read_lifted(args.file)
    u, v = _polygonize(x.plus, args.polygonize_disc), _polygonize(x.minus, args.polygonize_disc)
    trace = inequalities.reduce_pair(u, v)
    pair = x if u is x.plus and v is x.minus else lifted.lift(u, v)  # x is a lift already
    lines = [_dumps(step.to_dict()) for step in trace.steps]
    w = trace.witness
    ow, mw = bodies.perimeter(w), bodies.area(w)
    summary = {
        "summary": True,
        "steps": len(trace.steps),
        "witness": _body_dict(w),
        "witness_sign": trace.witness_sign,
        "witness_perimeter": ow,
        "witness_area": mw,
        "input_perimeter_ext": lifted.perimeter_ext(pair),
        "input_measure_ext": lifted.measure_ext(pair),
        "classical_deficit_of_witness": ow * ow - 4 * PI * mw,
    }
    lines.append(_dumps(summary))
    return 0, lines


# --- kernel --------------------------------------------------------------


def _cmd_kernel(args) -> tuple[int, list[str]]:
    if args.action == "gram":
        nodes = np.linspace(0.0, PI, args.nodes)
        g = rkhs.gram(nodes)
        if args.csv:
            return 0, _csv([nodes]) + _csv(g)
        obj = {"nodes": nodes.tolist(), "entries": g.tolist()}
    elif args.action == "eig":
        eigs = rkhs.grid_eigenvalues(args.nodes)
        obj = {"nodes": args.nodes, "min_eig": float(eigs[0]), "eigenvalues": list(map(float, eigs))}
    elif args.action == "eval":
        nodes, values = rkhs.sample(_read_lifted(args.file), args.nodes)
        if args.csv:
            return 0, _csv([nodes, values])
        obj = {"nodes": nodes.tolist(), "values": values.tolist()}
    else:  # interp
        nodes, values = _read_width_function(args.file)
        coeffs = rkhs.interpolate(nodes, values, ridge=args.ridge)
        obj = {"nodes": nodes, "coefficients": coeffs.tolist(), "ridge": args.ridge}
    return 0, [_dumps(obj)]


# --- rotation-fn ---------------------------------------------------------


def _cmd_rotation_fn(args) -> tuple[int, list[str]]:
    u, v = _read_body(args.file), _read_body(args.other)
    phi_star, f_min = inequalities.singular_min(u, v)  # rejects discs and empty bodies
    phis = np.linspace(0.0, PI, args.nodes, endpoint=False)
    e_vals = inequalities.rotation_fn_E(u, v, phis)
    f_vals = inequalities.rotation_fn_F(u, v, phis)
    if args.csv:
        return 0, ["phi,E,F\n", *_csv(np.column_stack([phis, e_vals, f_vals]))]
    obj = {
        "phi": list(map(float, phis)),
        "E": list(map(float, e_vals)),
        "F": list(map(float, f_vals)),
        "candidates": list(map(float, inequalities.singular_candidates(u, v))),
        "phi_star": phi_star,
        "F_min": f_min,
    }
    return 0, [_dumps(obj)]


# --- parser --------------------------------------------------------------


def _int_in(lo: int, hi: float = math.inf, or_zero: bool = False):
    """argparse type: an integer in [lo, hi], or 0 as well when or_zero."""
    domain = f"{'0 or ' if or_zero else ''}an integer in [{lo}, {hi}]"

    def parse(text: str) -> int:
        value = int(text)
        if not (lo <= value <= hi or (or_zero and value == 0)):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_at_least(lo: float):
    """argparse type: a finite float >= lo."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < lo:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {lo}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, and per action of body, lift and kernel,
    each holding only the arguments its command reads."""
    parser = _Parser(prog="zonalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    max_diangles, max_nodes = inequalities.MAX_DIANGLES, rkhs.MAX_NODES

    def arg(*flags, **kwargs):
        return flags, kwargs

    def command(parsers, name, func, *args, **kwargs):
        p = parsers.add_parser(name, **kwargs)
        for flags, options in args:
            p.add_argument(*flags, **options)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p.set_defaults(func=func)

    def actions(name, help, func, **per_action):
        parsers = sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)
        for action, args in per_action.items():
            command(parsers, action, func, *args)

    file, lifted_file, csv = arg("file"), arg("file", help="lifted vector JSON"), arg("--csv", action="store_true")
    help_ = f"replace a disc by its circumscribed 2N-gon: N = 0 keeps it, else 2 <= N <= {max_diangles}"
    polygonize = arg("--polygonize-disc", type=_int_in(2, max_diangles, True), default=0, metavar="N", help=help_)
    value = functools.partial(arg, "--value", type=float, default=0.0)

    def nodes(lo):
        return arg("--nodes", type=_int_in(lo, max_nodes), default=16, help=f"grid size in [{lo}, {max_nodes}]")

    actions("body", "closed-form quantities of a body", _cmd_body, stats=[file], vertices=[file, polygonize], svg=[file])
    actions(
        "lift",
        "operations on lifted vectors",
        _cmd_lift,
        stats=[lifted_file],
        add=[lifted_file, arg("other", help="second lifted vector JSON")],
        scale=[lifted_file, value(help="scalar factor")],
        eval=[lifted_file, value(help="angle in [0, pi]")],
    )
    # Trial indices lie in [0, 2**64), where draw_atoms' counter would wrap.
    trials = arg("--trials", type=_int_in(0, 2**64), default=1000, help="at most 2**64")
    seed = arg("--seed", type=_int_in(0), default=0)
    diangles = arg("--max-diangles", type=_int_in(1, max_diangles), default=10, help=f"at most {max_diangles}")
    inequality = arg("inequality", choices=sorted(inequalities.CAMPAIGN_BODIES))
    command(sub, "check", _cmd_check, inequality, trials, seed, diangles, help="fuzz an inequality")
    pair = arg("file", help="lifted vector JSON (the pair to reduce)")
    command(sub, "reduce", _cmd_reduce, pair, polygonize, help="singular-position reduction trace (JSON lines)")
    ridge = arg("--ridge", type=_finite_at_least(0.0), default=0.0, help="finite, >= 0")
    actions(
        "kernel",
        "kernel matrices, eigenvalues, sampling, interpolation",
        _cmd_kernel,
        gram=[nodes(1), csv],
        eig=[nodes(1)],
        eval=[lifted_file, nodes(2), csv],
        interp=[arg("file", help="width function JSON"), ridge],
    )
    fixed, rotating = arg("file", help="fixed zonogon JSON"), arg("other", help="rotating zonogon JSON")
    grid = arg("--nodes", type=_int_in(0, max_nodes), default=64, help=f"grid size, at most {max_nodes}")
    command(
        sub, "rotation-fn", _cmd_rotation_fn, fixed, rotating, grid, csv, help="rotation functions E and F over a grid"
    )
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy warnings stay off stderr; _dumps rejects a non-finite result.
        with np.errstate(all="ignore"):
            code, lines = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(lines)
        else:
            sys.stdout.writelines(lines)
        return code
    except SystemExit as exc:  # argparse, on --help or a usage error
        return 2 if exc.code not in (0, None) else 0
    except (ZonalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: never exit 1
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
