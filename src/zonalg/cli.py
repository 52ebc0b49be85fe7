"""Command-line front end.

Exit codes: 0 success, 1 verification failure (an inequality violated
beyond tolerance), 2 usage or input error, 3 internal error (an unexpected
exception).  Exits 2 and 3 print one `error:` line on stderr and nothing on
stdout.  Output is JSON on stdout
unless --csv/--svg is given; identical arguments and seed produce
byte-identical output.
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    """JSON text of obj; a NaN or infinite value is an error, not output."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"result is not finite: {exc}") from exc


def _emit_json(obj, out_path: str | None) -> None:
    _emit(_dumps(obj) + "\n", out_path)


def _csv(rows) -> str:
    """CSV of a 2-D float array, each entry as repr writes it; NaN or inf is an error.

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
    return "\n".join([",".join(text[row].tolist()) for row in np.searchsorted(distinct, bits)] + [""])


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


def _cmd_body(args) -> int:
    a = _read_body(args.file)
    if args.action == "stats":
        _emit_json(_body_stats(a), args.out)
    elif args.action == "vertices":
        _emit_json({"vertices": bodies.vertices(_polygonize(a, args.polygonize_disc)).tolist()}, args.out)
    else:  # svg
        _emit(body_svg(a), args.out)
    return 0


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


def _cmd_lift(args) -> int:
    if args.action == "add" and args.other is None:
        args.error("lift add needs a second vector file")
    if args.action == "stats":
        _emit_json(_lift_stats(_read_lifted(args.file)), args.out)
    elif args.action == "add":
        z = lifted.add(_read_lifted(args.file), _read_lifted(args.other))
        _emit_json(_lifted_dict(z), args.out)
    elif args.action == "scale":
        z = lifted.scale_real(_read_lifted(args.file), args.value)
        _emit_json(_lifted_dict(z), args.out)
    else:  # eval
        val = rkhs.evaluate(_read_lifted(args.file), args.value)
        _emit_json({"phi": args.value, "value": val}, args.out)
    return 0


# --- check ---------------------------------------------------------------


def _cmd_check(args) -> int:
    result = inequalities.campaign(args.inequality, args.trials, args.seed, args.max_diangles, args.tol)
    report = {"inequality": args.inequality, "trials": args.trials, "seed": args.seed, **result}
    _emit_json(report, args.out)
    return 1 if result["violations"] else 0


# --- reduce --------------------------------------------------------------


def _cmd_reduce(args) -> int:
    x = _read_lifted(args.file)
    u, v = _polygonize(x.plus, args.polygonize_disc), _polygonize(x.minus, args.polygonize_disc)
    trace = inequalities.reduce_pair(u, v)
    pair = lifted.lift(u, v)
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# --- kernel --------------------------------------------------------------


def _cmd_kernel(args) -> int:
    if args.action in ("eval", "interp") and args.file is None:
        args.error(f"kernel {args.action} needs a file")
    if args.action == "eval" and args.nodes < 2:
        args.error(f"kernel eval needs --nodes >= 2, got {args.nodes}")
    if args.action == "gram":
        nodes = np.linspace(0.0, PI, args.nodes)
        g = rkhs.gram(nodes)
        if args.csv:
            _emit(_csv(np.vstack([nodes, g])), args.out)
        else:
            _emit_json({"nodes": nodes.tolist(), "entries": g.tolist()}, args.out)
    elif args.action == "eig":
        eigs = rkhs.grid_eigenvalues(args.nodes)
        _emit_json({"nodes": args.nodes, "min_eig": float(eigs[0]), "eigenvalues": list(map(float, eigs))}, args.out)
    elif args.action == "eval":
        nodes, values = rkhs.sample(_read_lifted(args.file), args.nodes)
        if args.csv:
            _emit(_csv([nodes, values]), args.out)
        else:
            _emit_json({"nodes": nodes.tolist(), "values": values.tolist()}, args.out)
    else:  # interp
        nodes, values = _read_width_function(args.file)
        coeffs = rkhs.interpolate(nodes, values, ridge=args.ridge)
        _emit_json({"nodes": nodes, "coefficients": coeffs.tolist(), "ridge": args.ridge}, args.out)
    return 0


# --- rotation-fn ---------------------------------------------------------


def _cmd_rotation_fn(args) -> int:
    u, v = _read_body(args.file), _read_body(args.other)
    phi_star, f_min = inequalities.singular_min(u, v)  # rejects discs and empty bodies
    phis = np.linspace(0.0, PI, args.nodes, endpoint=False)
    e_vals = inequalities.rotation_fn_E(u, v, phis)
    f_vals = inequalities.rotation_fn_F(u, v, phis)
    cands = inequalities.singular_candidates(u, v)
    if args.csv:
        _emit("phi,E,F\n" + _csv(np.column_stack([phis, e_vals, f_vals])), args.out)
    else:
        _emit_json(
            {
                "phi": list(map(float, phis)),
                "E": list(map(float, e_vals)),
                "F": list(map(float, f_vals)),
                "candidates": list(map(float, cands)),
                "phi_star": phi_star,
                "F_min": f_min,
            },
            args.out,
        )
    return 0


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
    parser = _Parser(prog="zonalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    max_diangles, max_nodes = inequalities.MAX_DIANGLES, rkhs.MAX_NODES

    def add_polygonize(p):
        help_ = f"replace a disc by its circumscribed 2N-gon: N = 0 keeps it, else 2 <= N <= {max_diangles}"
        p.add_argument("--polygonize-disc", type=_int_in(2, max_diangles, True), default=0, metavar="N", help=help_)

    p_body = sub.add_parser("body", help="closed-form quantities of a body")
    p_body.add_argument("action", choices=["stats", "vertices", "svg"])
    p_body.add_argument("file")
    add_polygonize(p_body)
    add_out(p_body)
    p_body.set_defaults(func=_cmd_body)

    p_lift = sub.add_parser("lift", help="operations on lifted vectors")
    p_lift.add_argument("action", choices=["stats", "add", "scale", "eval"])
    p_lift.add_argument("file")
    p_lift.add_argument("other", nargs="?", help="second vector file (for add)")
    p_lift.add_argument("--value", type=float, default=0.0, help="scalar for scale / angle for eval")
    add_out(p_lift)
    p_lift.set_defaults(func=_cmd_lift, error=p_lift.error)

    p_check = sub.add_parser("check", help="fuzz an inequality")
    p_check.add_argument("inequality", choices=sorted(inequalities.CAMPAIGN_BODIES))
    p_check.add_argument("--trials", type=_int_in(0), default=1000)
    p_check.add_argument("--seed", type=_int_in(0), default=0)
    p_check.add_argument("--max-diangles", type=_int_in(1, max_diangles), default=10, help=f"at most {max_diangles}")
    p_check.add_argument("--tol", type=_finite_at_least(0.0), default=1e-9, help="finite, >= 0")
    add_out(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_reduce = sub.add_parser("reduce", help="singular-position reduction trace (JSON lines)")
    p_reduce.add_argument("file", help="lifted vector JSON (the pair to reduce)")
    add_polygonize(p_reduce)
    add_out(p_reduce)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_kernel = sub.add_parser("kernel", help="kernel matrices, eigenvalues, sampling, interpolation")
    p_kernel.add_argument("action", choices=["gram", "eig", "eval", "interp"])
    p_kernel.add_argument("file", nargs="?", help="lifted vector (eval) or width function (interp) JSON")
    p_kernel.add_argument(
        "--nodes", type=_int_in(1, max_nodes), default=16, help=f"grid size, at most {max_nodes} (eval needs >= 2)"
    )
    p_kernel.add_argument("--ridge", type=_finite_at_least(0.0), default=0.0, help="finite, >= 0")
    p_kernel.add_argument("--csv", action="store_true")
    add_out(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel, error=p_kernel.error)

    p_rot = sub.add_parser("rotation-fn", help="rotation functions E and F over a grid")
    p_rot.add_argument("file", help="fixed body JSON")
    p_rot.add_argument("other", help="rotating zonogon JSON")
    p_rot.add_argument("--nodes", type=_int_in(0, max_nodes), default=64, help=f"grid size, at most {max_nodes}")
    p_rot.add_argument("--csv", action="store_true")
    add_out(p_rot)
    p_rot.set_defaults(func=_cmd_rotation_fn)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy warnings stay off stderr; _dumps rejects a non-finite result.
        with np.errstate(all="ignore"):
            return args.func(args)
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
