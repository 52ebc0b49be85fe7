"""Microseconds per request command and per stage, for the six request kinds.

Run from the repository root:

    PYTHONPATH=src python tests/request_layers.py [repeats]

A seeded corpus is drawn with numpy (not with zonalg.generators, so a change
to the package cannot change it): for each of `reduce`, `lift stats`,
`lift add`, `lift scale`, `kernel eval --nodes 256` and `body stats`, two
files per size of 2..24 diangles, written as JSON to a temporary directory.
Lifted files split their diangles between the two sides, one at least on
each, and a side carries a disc with probability 1/4 (never for `reduce`).

Each stage is timed as one pass over a kind's corpus, best of `repeats`
passes (default 7), and printed per command:

- command: zonalg.cli.run on the argv, stdout discarded;
- parse: the argument parser;
- read: the input files (two for `lift add`), JSON to Body or
  LiftedVector, lift included;
- lift: lifted.lift on the Bodies that read built, once per file;
- reduce: inequalities.reduce_pair;
- forms: what the command computes from what it has read;
- output: the JSON lines.

The stages are timed apart, so they need not add up to the command.  A
report, not a gate: one process, one thread, on a shared host.  It runs
against any checkout whose cli has the same private helpers, so the same
file gives before and after figures.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from zonalg import bodies, cli, inequalities, lifted, rkhs

SIZES = range(2, 25)
PER_SIZE = 2
EVAL_NODES = 256
STAGES = ("command", "parse", "read", "lift", "reduce", "forms", "output")
LOG_LO, LOG_HI = math.log(0.01), math.log(10.0)


def _side(rng, n: int, disc_prob: float) -> dict:
    angles = rng.uniform(0.0, math.pi, n)
    lengths = np.exp(rng.uniform(LOG_LO, LOG_HI, n))
    disc = float(np.exp(rng.uniform(LOG_LO, LOG_HI))) if rng.random() < disc_prob else 0.0
    return {"diangles": [{"angle": float(a), "d": float(d)} for a, d in zip(angles, lengths)], "disc": disc}


def _pair(rng, n: int, disc_prob: float) -> dict:
    k = int(rng.integers(1, n))
    return {"plus": _side(rng, k, disc_prob), "minus": _side(rng, n - k, disc_prob)}


def corpus(directory: Path, seed: int = 0) -> dict[str, list[list[str]]]:
    """The argv of every request, by kind; the input files go to directory."""
    rng = np.random.default_rng(seed)
    argvs: dict[str, list[list[str]]] = {}

    def write(obj) -> str:
        path = directory / f"{len(list(directory.iterdir()))}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)

    for n in [n for n in SIZES for _ in range(PER_SIZE)]:
        argvs.setdefault("reduce", []).append(["reduce", write(_pair(rng, n, 0.0))])
        argvs.setdefault("lift stats", []).append(["lift", "stats", write(_pair(rng, n, 0.25))])
        files = [write(_pair(rng, n, 0.25)) for _ in range(2)]
        argvs.setdefault("lift add", []).append(["lift", "add", *files])
        value = f"--value={float(rng.uniform(-3.0, 3.0))!r}"
        argvs.setdefault("lift scale", []).append(["lift", "scale", write(_pair(rng, n, 0.25)), value])
        nodes = ["--nodes", str(EVAL_NODES)]
        argvs.setdefault("kernel eval", []).append(["kernel", "eval", write(_pair(rng, n, 0.25)), *nodes])
        argvs.setdefault("body stats", []).append(["body", "stats", write(_side(rng, n, 0.25))])
    return argvs


def _read_sides(path: str):
    return cli._read(path, "lifted vector", lambda obj: (cli._body(obj["plus"]), cli._body(obj["minus"])))


def _reduce_summary(x, trace) -> list[str]:
    lines = [cli._dumps(step.to_dict()) for step in trace.steps]
    lines.append(cli._dumps({"witness": cli._body_dict(trace.witness), "perimeter": lifted.perimeter_ext(x)}))
    return lines


def stages(kind: str, argvs: list[list[str]]) -> dict:
    """Each stage of kind as a function of no arguments over the whole corpus."""
    parser = cli.build_parser()
    parsed = [parser.parse_args(argv) for argv in argvs]
    files = [[a.file, a.other] if kind == "lift add" else [a.file] for a in parsed]
    out = {
        "command": lambda: [cli.run(argv) for argv in argvs],
        "parse": lambda: [parser.parse_args(argv) for argv in argvs],
    }
    if kind == "body stats":
        read = [cli._read_body(f[0]) for f in files]
        stats = [cli._body_stats(a) for a in read]
        out["read"] = lambda: [cli._read_body(f[0]) for f in files]
        out["forms"] = lambda: [cli._body_stats(a) for a in read]
        out["output"] = lambda: [cli._dumps(s) for s in stats]
        return out
    sides = [_read_sides(p) for f in files for p in f]
    vectors = [cli._read_lifted(p) for f in files for p in f]
    out["read"] = lambda: [cli._read_lifted(p) for f in files for p in f]
    out["lift"] = lambda: [lifted.lift(u, v) for u, v in sides]
    if kind == "reduce":
        traces = [inequalities.reduce_pair(x.plus, x.minus) for x in vectors]
        out["reduce"] = lambda: [inequalities.reduce_pair(x.plus, x.minus) for x in vectors]
        out["forms"] = lambda: [
            (bodies.perimeter(t.witness), bodies.area(t.witness), lifted.perimeter_ext(x), lifted.measure_ext(x))
            for x, t in zip(_fresh(vectors), traces)
        ]
        out["output"] = lambda: [_reduce_summary(x, t) for x, t in zip(vectors, traces)]
        return out
    if kind == "lift stats":
        out["forms"] = lambda: [cli._lift_stats(x) for x in _fresh(vectors)]
    elif kind == "lift add":
        pairs = list(zip(vectors[::2], vectors[1::2]))
        out["forms"] = lambda: [lifted.add(x, y) for x, y in pairs]
    elif kind == "lift scale":
        out["forms"] = lambda: [lifted.scale_real(x, a.value) for x, a in zip(vectors, parsed)]
    else:  # kernel eval
        out["forms"] = lambda: [rkhs.sample(x, EVAL_NODES) for x in _fresh(vectors)]
    results = out["forms"]()
    if kind == "lift stats":
        out["output"] = lambda: [cli._dumps(s) for s in results]
    elif kind == "kernel eval":
        out["output"] = lambda: [cli._dumps({"nodes": n.tolist(), "values": v.tolist()}) for n, v in results]
    else:
        out["output"] = lambda: [cli._dumps(cli._lifted_dict(x)) for x in results]
    return out


def _fresh(vectors):
    """The vectors again, without any value a form has kept on them."""
    return [lifted.LiftedVector(x.plus, x.minus) for x in vectors]


def best_us(fn, count: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / count


def main(repeats: int = 7) -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as sink:
        argvs = corpus(Path(tmp))
        rows = {}
        for kind, kind_argvs in argvs.items():
            timed = stages(kind, kind_argvs)
            rows[kind] = {name: best_us(fn, len(kind_argvs), repeats) for name, fn in timed.items()}
            sink.seek(0)
            sink.truncate()
    print(f"best of {repeats} passes, µs per command, {PER_SIZE * len(SIZES)} commands per kind")
    print(f"{'kind':<12}" + "".join(f"{s:>9}" for s in STAGES))
    for kind, row in rows.items():
        print(f"{kind:<12}" + "".join(f"{row[s]:9.1f}" if s in row else f"{'-':>9}" for s in STAGES))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
