"""The three workloads: seeded inputs, command streams and output checks.

A workload yields *units*, each a list of ``(argv, ctx)`` commands for
``zonalg.cli.run``; ``ctx`` is what the check of that command's output
needs.  Inputs are drawn with numpy from the workload seed, not with
``zonalg.generators``, so a change to the package cannot change them.
The checks use plain numpy formulas and ``zonalg.oracle`` only, never the
code paths being timed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

PI = math.pi
LOG_LO, LOG_HI = math.log(0.01), math.log(10.0)
TOL = 1e-9


def _reject_constant(name):
    raise ValueError(f"{name} in output")


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def random_body(rng: np.random.Generator, n: int, disc_prob: float) -> dict:
    angles = rng.uniform(0.0, PI, n)
    lens = np.exp(rng.uniform(LOG_LO, LOG_HI, n))
    disc = float(np.exp(rng.uniform(LOG_LO, LOG_HI))) if rng.random() < disc_prob else 0.0
    return {"diangles": [{"angle": float(a), "d": float(d)} for a, d in zip(angles, lens)], "disc": disc}


def random_pair(rng: np.random.Generator, n: int, disc_prob: float) -> dict:
    """A lifted vector with n diangles in all, at least one on each side."""
    k = int(rng.integers(1, n))
    return {"plus": random_body(rng, k, disc_prob), "minus": random_body(rng, n - k, disc_prob)}


def arrays(body: dict) -> tuple[np.ndarray, np.ndarray, float]:
    angles = np.array([d["angle"] for d in body["diangles"]], dtype=float)
    lens = np.array([d["d"] for d in body["diangles"]], dtype=float)
    return angles, lens, float(body["disc"])


def support(body: dict, thetas: np.ndarray) -> np.ndarray:
    """h(theta) = sum_j d_j |cos(theta - theta_j)| + r."""
    angles, lens, disc = arrays(body)
    return np.abs(np.cos(thetas[:, None] - angles[None, :])) @ lens + disc


def support_diff(x: dict, thetas: np.ndarray) -> np.ndarray:
    return support(x["plus"], thetas) - support(x["minus"], thetas)


def size(x: dict) -> float:
    """Magnitude used to scale tolerances: total half-length plus discs."""
    bodies = [x["plus"], x["minus"]] if "plus" in x else [x]
    return 1.0 + sum(float(arrays(b)[1].sum()) + b["disc"] for b in bodies)


def perimeter(body: dict) -> float:
    _, lens, disc = arrays(body)
    return 4.0 * float(lens.sum()) + 2.0 * PI * disc


def polygon_area(oracle, body: dict) -> float:
    """Shoelace area (zonalg.oracle) of the zonogon part, from its vertices built here."""
    angles, lens, _ = arrays(body)
    if len(angles) < 2:
        return 0.0
    order = np.argsort(angles)
    edges = 2.0 * lens[order, None] * np.stack([np.cos(angles[order]), np.sin(angles[order])], axis=1)
    steps = np.concatenate([edges, -edges])
    verts = np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)[:-1]]) - 0.5 * edges.sum(axis=0)
    return oracle.shoelace_area(oracle.polygon(verts))


SUP_GRID = np.linspace(0.0, PI, 2048, endpoint=False)
REFINE = np.linspace(-0.5, 0.5, 33)
VECTOR_GRID = SUP_GRID[::32]  # where lifted vectors are compared


def grid_sup(f, lipschitz: float) -> tuple[float, float]:
    """Bounds (lo, hi) on the sup over [0, pi) of |f|, f being Lipschitz.

    The sup lies within half a step of a grid point whose value is within
    lipschitz * step / 2 of the grid maximum, so only those points are
    searched again on a 32x finer grid, twice.
    """
    thetas, step = SUP_GRID, PI / len(SUP_GRID)
    for _ in range(2):
        vals = np.abs(f(thetas))
        near = thetas[vals >= vals.max() - 0.5 * lipschitz * step]
        if len(near) > 512:  # nearly flat: refining would cost more than it tells
            break
        thetas = (near[:, None] + step * REFINE[None, :]).ravel()
        step /= len(REFINE) - 1
    top = float(np.abs(f(thetas)).max())
    return top, top + 0.5 * lipschitz * step


def _close(got: float, want: float, scale: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * scale


def _write(path: Path, obj) -> str:
    """Write obj as JSON, over the file's old bytes if it exists.

    Set-ups after the first rewrite the same files in place.  Creating
    and deleting thousands of files per set-up made its time depend on the
    file system's backlog of freed blocks, not on the benchmark.
    """
    data = json.dumps(obj, sort_keys=True).encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return str(path)


class Workload:
    """Base: a unit is one or more commands; work() counts its operations."""

    name = ""
    op = ""
    setup_repeats = 11  # set-ups take 0.05-0.15 s here; their median is setup_s

    def warmup_units(self) -> list:
        """Units run during set-up, before any timing."""
        raise NotImplementedError

    def units(self):
        """The timed stream of units, in order."""
        raise NotImplementedError

    def work(self, unit: list) -> int:
        """Ops in a unit's records."""
        return 1

    def check(self, ctx, stdout: str) -> str | None:
        """Why this output is wrong, or None."""
        raise NotImplementedError

    def report(self, records: list) -> dict:
        raise NotImplementedError

    def layer_extras(self, records: list) -> dict:
        return {"campaign.bmgen_checked_ratio": 0.0}


# --- campaign ----------------------------------------------------------


@dataclass(frozen=True)
class CheckCmd:
    kind: str
    trials: int
    seed: int


class Campaign(Workload):
    """Rounds of check iso, bm, bmgen and schwarz at the default --max-diangles 10."""

    name = "campaign"
    op = "fuzz trial"
    KINDS = ("iso", "bm", "bmgen", "schwarz")
    TRIALS = 200

    def __init__(self, seed: int, workdir: Path, oracle):
        self.seed = seed

    def warmup_units(self):
        return [[self._cmd(kind, 5, 2**31 + i) for i, kind in enumerate(self.KINDS)]]

    def _cmd(self, kind: str, trials: int, seed: int):
        argv = ["check", kind, "--trials", str(trials), "--seed", str(seed)]
        return argv, CheckCmd(kind, trials, seed)

    def units(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            seeds = rng.integers(0, 2**31, len(self.KINDS))
            yield [self._cmd(kind, self.TRIALS, int(s)) for kind, s in zip(self.KINDS, seeds)]

    def work(self, unit) -> int:
        return sum(r.ctx.trials for r in unit)

    def check(self, ctx: CheckCmd, stdout):
        rep = strict_json(stdout)
        echo = {"inequality": ctx.kind, "trials": ctx.trials, "seed": ctx.seed, "violations": 0}
        for key, want in echo.items():
            if rep.get(key) != want:
                return f"{key} = {rep.get(key)!r}, expected {want!r}"
        if ctx.kind == "bmgen":
            if not 0 <= rep["checked"] <= ctx.trials:
                return f"checked = {rep['checked']} outside [0, {ctx.trials}]"
            if rep["checked"] == 0:
                return None
        if not isinstance(rep.get("min_slack"), float):
            return f"min_slack = {rep.get('min_slack')!r}"
        return None

    def report(self, records):
        out = {}
        for kind in self.KINDS:
            recs = [r for r in records if r.ctx.kind == kind]
            secs = sum(r.seconds for r in recs)
            trials = sum(r.ctx.trials for r in recs)
            out[f"{kind}_trials_per_s"] = (trials / secs, "1/s", len(recs))
        return out

    def layer_extras(self, records):
        recs = [r for r in records if r.ctx.kind == "bmgen" and r.rc == 0]
        attempted = sum(r.ctx.trials for r in recs)
        checked = sum(json.loads(r.stdout)["checked"] for r in recs)
        return {"campaign.bmgen_checked_ratio": checked / attempted if attempted else 0.0}


# --- requests ----------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    inputs: tuple  # input objects, in argv order
    value: float = 0.0


class Requests(Workload):
    """Single commands, each on its own pre-generated file of 2-24 diangles.

    The mix is fixed per block of 20 (7 reduce, 2 lift add, 2 lift scale,
    5 lift stats, 2 kernel eval, 2 body stats), shuffled within the block,
    and each kind cycles through shuffled sizes 2..24, so every prefix of
    the stream has the same mix and size spread whatever the seed.
    """

    name = "requests"
    op = "request"
    BLOCK = ["reduce"] * 7 + ["add"] * 2 + ["scale"] * 2 + ["stats"] * 5 + ["eval"] * 2 + ["body"] * 2
    SIZES = np.arange(2, 25)
    POOL = 10000  # distinct requests; the loop ends early if a run uses them all
    setup_repeats = 5  # each set-up writes 11000 files
    EVAL_NODES = 256

    def __init__(self, seed: int, workdir: Path, oracle):
        self.oracle = oracle
        rng = np.random.default_rng([seed, 2])
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.requests = self._generate(rng, self.POOL, "r")
        self.warmup = self._generate(rng, len(self.BLOCK), "w")

    def _generate(self, rng, count: int, prefix: str) -> list:
        kinds = []
        while len(kinds) < count:
            kinds += [str(k) for k in rng.permutation(self.BLOCK)]
        kinds = kinds[:count]
        size_decks: dict[str, list] = {}
        out = []
        for i, kind in enumerate(kinds):
            deck = size_decks.setdefault(kind, [])
            if not deck:
                deck.extend(rng.permutation(self.SIZES))
            n = int(deck.pop())
            if kind == "reduce":
                inputs = (random_pair(rng, n, 0.0),)
            elif kind == "add":
                inputs = (random_pair(rng, n, 0.25), random_pair(rng, n, 0.25))
            elif kind == "body":
                inputs = (random_body(rng, n, 0.25),)
            else:
                inputs = (random_pair(rng, n, 0.25),)
            value = float(rng.uniform(-3.0, 3.0)) if kind == "scale" else 0.0
            paths = [_write(self.dir / f"{prefix}{i}_{j}.json", x) for j, x in enumerate(inputs)]
            out.append((self._argv(kind, paths, value), Request(kind, inputs, value)))
        return out

    def _argv(self, kind: str, paths: list[str], value: float) -> list[str]:
        if kind == "reduce":
            return ["reduce", paths[0]]
        if kind == "add":
            return ["lift", "add", paths[0], paths[1]]
        if kind == "scale":
            return ["lift", "scale", paths[0], f"--value={value!r}"]
        if kind == "stats":
            return ["lift", "stats", paths[0]]
        if kind == "eval":
            return ["kernel", "eval", paths[0], "--nodes", str(self.EVAL_NODES)]
        return ["body", "stats", paths[0]]

    def warmup_units(self):
        return [[cmd] for cmd in self.warmup]

    def units(self):
        for cmd in self.requests:
            yield [cmd]

    def check(self, ctx: Request, stdout):
        return getattr(self, f"_check_{ctx.kind}")(ctx, stdout)

    def _check_reduce(self, ctx, stdout):
        x = ctx.inputs[0]
        lines = [strict_json(line) for line in stdout.splitlines()]
        summary = lines[-1]
        if summary.get("summary") is not True or summary["steps"] != len(lines) - 1:
            return "malformed reduce summary"
        scale = size(x)
        ext = perimeter(x["plus"]) - perimeter(x["minus"])
        if not _close(summary["input_perimeter_ext"], ext, scale):
            return f"input_perimeter_ext {summary['input_perimeter_ext']!r} != {ext!r}"
        witness = summary["witness"]
        ow = summary["witness_perimeter"]
        if not _close(summary["witness_sign"] * ow, ext, scale) or not _close(ow, perimeter(witness), scale):
            return f"witness perimeter {ow!r} does not carry perimeter_ext {ext!r}"
        area = polygon_area(self.oracle, witness)
        if not _close(summary["witness_area"], area, scale * scale):
            return f"witness_area {summary['witness_area']!r} != shoelace {area!r}"
        if ow * ow - 4.0 * PI * area < -TOL * scale * scale:
            return f"witness has negative classical deficit {ow * ow - 4.0 * PI * area!r}"
        return None

    @staticmethod
    def _check_vector(stdout: str, want: np.ndarray, scale: float) -> str | None:
        err = float(np.max(np.abs(support_diff(strict_json(stdout), VECTOR_GRID) - want)))
        return None if err <= TOL * scale else f"support differs by {err!r}"

    def _check_add(self, ctx, stdout):
        x, y = ctx.inputs
        want = support_diff(x, VECTOR_GRID) + support_diff(y, VECTOR_GRID)
        return self._check_vector(stdout, want, size(x) + size(y))

    def _check_scale(self, ctx, stdout):
        x = ctx.inputs[0]
        want = ctx.value * support_diff(x, VECTOR_GRID)
        return self._check_vector(stdout, want, (1.0 + abs(ctx.value)) * size(x))

    def _check_stats(self, ctx, stdout):
        x = ctx.inputs[0]
        stats = strict_json(stdout)
        scale = size(x)
        ext = perimeter(x["plus"]) - perimeter(x["minus"])
        if not _close(stats["perimeter"], ext, scale):
            return f"perimeter {stats['perimeter']!r} != {ext!r}"
        lipschitz = float(arrays(x["plus"])[1].sum() + arrays(x["minus"])[1].sum())
        lo, hi = grid_sup(lambda t: support_diff(x, t), lipschitz)
        if not lo - TOL * scale <= stats["norm_c"] <= hi + TOL * scale:
            return f"norm_c {stats['norm_c']!r} outside grid bounds [{lo!r}, {hi!r}]"
        return None

    def _check_eval(self, ctx, stdout):
        x = ctx.inputs[0]
        wf = strict_json(stdout)
        nodes = np.linspace(0.0, PI, self.EVAL_NODES)
        if len(wf["nodes"]) != len(nodes) or np.max(np.abs(np.array(wf["nodes"]) - nodes)) > 1e-15:
            return "kernel eval nodes are not the uniform grid"
        err = float(np.max(np.abs(np.array(wf["values"]) - support_diff(x, nodes + PI / 2))))
        return None if err <= TOL * size(x) else f"kernel eval values differ by {err!r}"

    def _check_body(self, ctx, stdout):
        b = ctx.inputs[0]
        stats = strict_json(stdout)
        _, lens, r = arrays(b)
        scale = size(b)
        # Steiner formula: polygon area + polygon perimeter * r + pi r^2
        area = polygon_area(self.oracle, b) + 4.0 * float(lens.sum()) * r + PI * r * r
        if not _close(stats["area"], area, scale * scale):
            return f"area {stats['area']!r} != {area!r}"
        if not _close(stats["perimeter"], perimeter(b), scale):
            return f"perimeter {stats['perimeter']!r} != {perimeter(b)!r}"
        if stats["num_diangles"] != len(lens) or stats["disc"] != r:
            return "num_diangles or disc does not echo the input"
        lo, hi = grid_sup(lambda t: support(b, t), float(lens.sum()))
        if not lo - TOL * scale <= stats["support_max"] <= hi + TOL * scale:
            return f"support_max {stats['support_max']!r} outside grid bounds [{lo!r}, {hi!r}]"
        return None

    def report(self, records):
        lat = np.array([r.seconds for r in records]) * 1e3
        secs = float(lat.sum()) / 1e3
        return {
            "req_per_s": (len(records) / secs, "1/s", len(records)),
            "req_p50_ms": (float(np.percentile(lat, 50)), "ms", len(records)),
            "req_p99_ms": (float(np.percentile(lat, 99)), "ms", len(records)),
        }


# --- spectrum ----------------------------------------------------------


@dataclass(frozen=True)
class KernelCmd:
    kind: str
    nodes: int


class Spectrum(Workload):
    """Passes of kernel eig 16..128, kernel gram 1000 --csv and kernel interp 512."""

    name = "spectrum"
    op = "pass"
    EIG_NODES = range(16, 129, 16)
    GRAM_NODES = 1000
    INTERP_NODES = 512
    RIDGE = 1e-10

    def __init__(self, seed: int, workdir: Path, oracle):
        rng = np.random.default_rng([seed, 3])
        nodes = np.linspace(0.0, PI, self.INTERP_NODES)
        x = random_pair(rng, 24, 0.25)
        self.wf = {"nodes": nodes.tolist(), "values": support_diff(x, nodes + PI / 2).tolist()}
        workdir.mkdir(parents=True, exist_ok=True)
        self.wf_path = _write(workdir / "widthfn.json", self.wf)

    def _pass(self, eig_nodes, gram_nodes: int):
        cmds = [(["kernel", "eig", "--nodes", str(n)], KernelCmd("eig", n)) for n in eig_nodes]
        cmds.append((["kernel", "gram", "--nodes", str(gram_nodes), "--csv"], KernelCmd("gram", gram_nodes)))
        cmds.append(
            (["kernel", "interp", self.wf_path, f"--ridge={self.RIDGE!r}"], KernelCmd("interp", self.INTERP_NODES))
        )
        return cmds

    def warmup_units(self):
        return [self._pass([8], 16)]

    def units(self):
        while True:
            yield self._pass(self.EIG_NODES, self.GRAM_NODES)

    @staticmethod
    def gram(nodes: np.ndarray) -> np.ndarray:
        return 2.0 - (PI / 2.0) * np.sin(np.abs(nodes[:, None] - nodes[None, :]))

    def check(self, ctx: KernelCmd, stdout):
        if ctx.kind == "eig":
            out = strict_json(stdout)
            want = np.linalg.eigvalsh(self.gram(np.linspace(0.0, PI, ctx.nodes)))
            got = np.array(out["eigenvalues"])
            if out["nodes"] != ctx.nodes or got.shape != want.shape or out["min_eig"] != out["eigenvalues"][0]:
                return "kernel eig output does not match its arguments"
            err = float(np.max(np.abs(got - want)))
            return None if err <= 1e-10 * float(np.max(np.abs(want))) else f"eigenvalues differ from eigvalsh by {err!r}"
        if ctx.kind == "gram":
            rows = [np.array(line.split(","), dtype=float) for line in stdout.splitlines()]
            nodes = np.linspace(0.0, PI, ctx.nodes)
            if len(rows) != ctx.nodes + 1 or np.max(np.abs(rows[0] - nodes)) > 1e-15:
                return "kernel gram CSV has the wrong nodes"
            err = float(np.max(np.abs(np.array(rows[1:]) - self.gram(nodes))))
            return None if err <= 1e-13 else f"gram entries differ by {err!r}"
        out = strict_json(stdout)
        nodes, values = np.array(self.wf["nodes"]), np.array(self.wf["values"])
        if out["ridge"] != self.RIDGE or out["nodes"] != self.wf["nodes"]:
            return "kernel interp output does not echo its input"
        coeffs = np.array(out["coefficients"])
        system = self.gram(nodes) + self.RIDGE * np.eye(len(nodes))
        residual = float(np.max(np.abs(system @ coeffs - values)))
        bound = 1e-8 * (np.abs(system).sum(axis=1).max() * np.abs(coeffs).max() + np.abs(values).max())
        return None if residual <= bound else f"interp residual {residual!r} > {bound!r}"

    def report(self, records):
        eig, rest = [], []
        for unit in group_units(records):
            eig.append(sum(r.seconds for r in unit if r.ctx.kind == "eig"))
            rest.append(sum(r.seconds for r in unit if r.ctx.kind != "eig"))
        return {
            "eig_sweep_s": (median(eig), "s", len(eig)),
            "gram_interp_s": (median(rest), "s", len(rest)),
        }


def group_units(records: list) -> list[list]:
    """Group records by unit index, in order."""
    groups: dict[int, list] = {}
    for r in records:
        groups.setdefault(r.unit, []).append(r)
    return list(groups.values())


WORKLOADS = {w.name: w for w in (Campaign, Requests, Spectrum)}
