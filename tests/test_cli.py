import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zonalg as z
from zonalg.bodies import PI
from zonalg.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

GOLDEN_CASES = [
    (["body", "stats", "square.json"], "body_stats_square.json"),
    (["body", "vertices", "square.json"], "body_vertices_square.json"),
    (["body", "vertices", "disc.json", "--polygonize-disc", "32"], "body_vertices_disc32.json"),
    (["body", "svg", "disc.json"], "body_svg_disc.svg"),
    (["body", "svg", "square.json"], "body_svg_square.svg"),
    (["lift", "stats", "lifted_sb.json"], "lift_stats_sb.json"),
    (["lift", "add", "lifted_sb.json", "lifted_sb.json"], "lift_add_sb.json"),
    (["lift", "scale", "lifted_sb.json", "--value", "-2.0"], "lift_scale_sb.json"),
    (["lift", "eval", "lifted_sb.json", "--value", "0.5"], "lift_eval_sb.json"),
    (["check", "iso", "--trials", "50", "--seed", "1"], "check_iso_50.json"),
    (["check", "bmgen", "--trials", "50", "--seed", "1"], "check_bmgen_50.json"),
    (["reduce", "reduce_pair.json"], "reduce_hex.jsonl"),
    (["kernel", "gram", "--nodes", "4", "--csv"], "kernel_gram_4.csv"),
    (["kernel", "eig", "--nodes", "8"], "kernel_eig_8.json"),
    (["kernel", "eval", "lifted_sb.json", "--nodes", "8", "--csv"], "kernel_eval_sb.csv"),
    (["kernel", "interp", "widthfn.json", "--ridge", "1e-10"], "kernel_interp.json"),
    (["rotation-fn", "square.json", "segment.json", "--nodes", "8", "--csv"], "rotation_fn.csv"),
    (["body", "svg", "rounded.json"], "body_svg_rounded.svg"),
    (["lift", "stats", "lifted_mixed.json"], "lift_stats_mixed.json"),
    (["lift", "stats", "lifted_nodisc.json"], "lift_stats_nodisc.json"),
    (["kernel", "eval", "lifted_mixed.json", "--nodes", "8", "--csv"], "kernel_eval_mixed.csv"),
    (["kernel", "eval", "lifted_nodisc.json", "--nodes", "8", "--csv"], "kernel_eval_nodisc.csv"),
    (["reduce", "lifted_nodisc.json"], "reduce_nodisc.jsonl"),
    (["reduce", "lifted_mixed.json", "--polygonize-disc", "6"], "reduce_mixed_disc6.jsonl"),
]

def resolve(argv):
    return [str(DATA / a) if (DATA / a).is_file() else a for a in argv]


@pytest.mark.parametrize("argv,golden", [pytest.param(argv, golden, id=golden) for argv, golden in GOLDEN_CASES])
def test_golden(argv, golden, capsys):
    assert run(resolve(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_determinism_across_processes(tmp_path):
    cmd = [
        sys.executable,
        "-c",
        "from zonalg.cli import main; main()",
        "check",
        "schwarz",
        "--trials",
        "200",
        "--seed",
        "42",
    ]
    runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # nonempty


def test_out_flag_matches_stdout(tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert run(resolve(["lift", "stats", "lifted_sb.json", "--out", str(out)])) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == (GOLDEN / "lift_stats_sb.json").read_text()


class TestValues:
    def test_body_stats_square(self):
        obj = json.loads((GOLDEN / "body_stats_square.json").read_text())
        assert obj["area"] == 1.0
        assert obj["perimeter"] == 4.0
        assert obj["support_max"] == pytest.approx(math.sqrt(2) / 2)

    def test_lift_stats_values(self):
        obj = json.loads((GOLDEN / "lift_stats_sb.json").read_text())
        assert obj["measure"] == pytest.approx(PI - 3, rel=1e-13)
        assert obj["deficit"] == pytest.approx(16 - 4 * PI, rel=1e-13)
        assert obj["norm_bp"] == pytest.approx(math.sqrt(2) / 2 + 1, rel=1e-12)

    def test_check_reports_zero_violations(self):
        for name in ("check_iso_50.json", "check_bmgen_50.json"):
            assert json.loads((GOLDEN / name).read_text())["violations"] == 0

    def test_reduce_trace_shape(self):
        lines = (GOLDEN / "reduce_hex.jsonl").read_text().strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["summary"] is True
        assert summary["steps"] == len(lines) - 1
        assert summary["classical_deficit_of_witness"] >= 0
        assert summary["witness_perimeter"] == pytest.approx(
            abs(summary["input_perimeter_ext"]), rel=1e-10
        )

    def test_gram_csv_diagonal(self):
        rows = (GOLDEN / "kernel_gram_4.csv").read_text().strip().split("\n")
        for i, row in enumerate(rows[1:]):
            assert float(row.split(",")[i]) == 2.0

    def test_svg_well_formed(self):
        for name in ("body_svg_disc.svg", "body_svg_square.svg", "body_svg_rounded.svg"):
            text = (GOLDEN / name).read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")


class TestExitCodes:
    def test_bad_json_is_usage_error(self, capsys):
        assert run(resolve(["body", "stats", "bad.json"])) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["body", "stats", "/nonexistent/nope.json"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(resolve(["body", "stats", "square.json", "--bogus"])) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0

    def test_domain_error(self, capsys):
        # eval angle outside [0, pi]
        assert run(resolve(["lift", "eval", "lifted_sb.json", "--value", "9.0"])) == 2

    def test_vertices_of_disc_without_polygonize(self, capsys):
        assert run(resolve(["body", "vertices", "disc.json"])) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "gram", "--nodes", "-1"],
            ["kernel", "eig", "--nodes", "0"],
            ["kernel", "eval", "lifted_sb.json", "--nodes", "1"],
            ["kernel", "eval"],
            ["kernel", "interp"],
            ["lift", "add", "lifted_sb.json"],
            ["check", "iso", "--trials", "-1"],
            ["check", "bm", "--max-diangles", "0"],
            ["check", "iso", "--max-diangles", "1025"],
            ["check", "iso", "--tol", "nan"],
            ["check", "bm", "--tol", "inf"],
            ["check", "schwarz", "--tol", "-1"],
            ["check", "iso", "--seed", "-1"],
            ["kernel", "interp", "widthfn.json", "--ridge", "nan"],
            ["kernel", "interp", "widthfn.json", "--ridge", "-1e-3"],
            ["kernel", "gram", "--nodes", "2000000"],
            ["kernel", "eig", "--nodes", "2000000"],
            ["kernel", "eval", "lifted_sb.json", "--nodes", "2000000"],
            ["kernel", "eig", "--nodes", str(z.rkhs.MAX_NODES + 1)],
            ["body", "vertices", "disc.json", "--polygonize-disc", "-1"],
            ["body", "vertices", "disc.json", "--polygonize-disc", "1"],
            ["body", "vertices", "square.json", "--polygonize-disc", "1"],
            ["reduce", "lifted_mixed.json", "--polygonize-disc", "1"],
            ["body", "vertices", "disc.json", "--polygonize-disc", str(z.inequalities.MAX_DIANGLES + 1)],
            ["body", "vertices", "square.json", "--polygonize-disc", "-1"],
            ["reduce", "lifted_mixed.json", "--polygonize-disc", "-1"],
            ["reduce", "lifted_mixed.json", "--polygonize-disc", str(z.inequalities.MAX_DIANGLES + 1)],
            ["rotation-fn", "square.json", "segment.json", "--nodes", str(z.rkhs.MAX_NODES + 1)],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_are_usage_errors(self, argv, capsys):
        assert run(resolve(argv)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "files", [["disc.json", "square.json"], ["square.json", "origin.json"], ["origin.json", "square.json"]], ids=" ".join
    )
    def test_rotation_fn_without_diangles_is_input_error(self, files, capsys):
        # A disc or an empty body has no singular position.
        assert run(resolve(["rotation-fn", *files])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["lift", "stats"], "[]"),
            (["reduce"], "[]"),
            (["kernel", "eval"], "[]"),
            (["lift", "stats"], '{"plus": {"diangles": [], "disc": 0.0}, "minus": 3}'),
            (["kernel", "interp"], '{"nodes": 5, "values": [1]}'),
            (["kernel", "interp"], "[]"),
            (["kernel", "interp"], '{"nodes": ["a"], "values": [1]}'),
            # JSON booleans and numeric strings are not numbers
            (["body", "stats"], '{"diangles": [{"angle": true, "d": 1}], "disc": false}'),
            (["kernel", "interp"], '{"nodes": [0, true], "values": [1, false]}'),
            (["body", "stats"], '{"diangles": [{"angle": "0.5", "d": 1}], "disc": 0}'),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_json_of_wrong_shape_is_input_error(self, argv, text, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert run([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["bm", "bmgen", "iso", "schwarz"])
    def test_huge_tolerance_is_quiet(self, kind, capsys):
        # Its bound tol * (1 + lhs) overflows to inf: nothing is counted, nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check", kind, "--trials", "50", "--tol", "1e308"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["violations"] == 0

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        def boom(_):
            raise RuntimeError("boom")

        monkeypatch.setattr(z.rkhs, "gram", boom)
        assert run(["kernel", "gram"]) == 3
        assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"

    def test_max_diangles_at_bound_runs(self, capsys):
        # The largest width whose (2 * m)**2 sine entries fit in CHUNK_ENTRIES.
        assert run(["check", "bmgen", "--trials", "1", "--max-diangles", "1024"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0

    def test_max_nodes_at_bound_runs(self, capsys):
        assert run(["kernel", "eig", "--nodes", str(z.rkhs.MAX_NODES)]) == 0
        assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == z.rkhs.MAX_NODES

    def test_polygonize_disc_at_bound_runs(self, capsys):
        n = z.inequalities.MAX_DIANGLES
        assert run(resolve(["body", "vertices", "disc.json", "--polygonize-disc", str(n)])) == 0
        assert len(json.loads(capsys.readouterr().out)["vertices"]) == 2 * n

    def test_rotation_fn_nodes_at_bound_runs(self, capsys):
        n = z.rkhs.MAX_NODES
        assert run(resolve(["rotation-fn", "square.json", "segment.json", "--nodes", str(n), "--csv"])) == 0
        assert capsys.readouterr().out.count("\n") == n + 1

    def test_rotation_fn_builds_only_its_inputs(self, monkeypatch, capsys):
        # E and F are evaluated on atom arrays at every node: no Body per node,
        # and the one singular_min search gives phi_star.
        built, searches = [], []
        post_init, search = z.bodies.Body.__post_init__, z.inequalities.singular_min

        def count_body(self):
            built.append(self)
            post_init(self)

        def count_search(u, v):
            searches.append((u, v))
            return search(u, v)

        monkeypatch.setattr(z.bodies.Body, "__post_init__", count_body)
        monkeypatch.setattr(z.inequalities, "singular_min", count_search)
        n = z.rkhs.MAX_NODES
        assert run(resolve(["rotation-fn", "square.json", "segment.json", "--nodes", str(n), "--csv"])) == 0
        assert capsys.readouterr().out.count("\n") == n + 1
        assert len(built) == 2 and len(searches) == 1

    def test_interp_node_count_is_bounded(self, tmp_path, capsys):
        n = z.rkhs.MAX_NODES + 1
        nodes = [PI * i / n for i in range(n)]
        (tmp_path / "wf.json").write_text(json.dumps({"nodes": nodes, "values": [1.0] * n}))
        assert run(["kernel", "interp", str(tmp_path / "wf.json"), "--ridge", "1e-10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: at most {z.rkhs.MAX_NODES} kernel nodes, got {n}\n"

    @pytest.mark.parametrize(
        "argv",
        [["rotation-fn", "big.json", "segment.json", "--nodes", "4", "--csv"], ["body", "svg", "big.json"]],
        ids=" ".join,
    )
    def test_nonfinite_text_output_is_input_error(self, argv, tmp_path, capsys):
        # Support and vertices overflow to inf; CSV and SVG refuse them as JSON does.
        huge = {"diangles": [{"angle": 0.0, "d": 1e308}, {"angle": 1.0, "d": 1e308}], "disc": 0.0}
        (tmp_path / "big.json").write_text(json.dumps(huge))
        argv = [str(tmp_path / a) if a == "big.json" else a for a in argv]
        assert run(resolve(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: result is not finite\n"

    @pytest.mark.parametrize("inequality", ["iso", "bm", "bmgen", "schwarz"])
    def test_empty_campaign_min_slack_null(self, inequality, capsys):
        assert run(["check", inequality, "--trials", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["min_slack"] is None

    def test_nonfinite_result_is_input_error(self, tmp_path, capsys):
        # lift stats overflows in the forms, lift add in the sum of two half-lengths.
        for d, action, files, message in [
            (1e200, "stats", 1, "error: result is not finite"),
            (1e308, "add", 2, "error: merged half_length overflows"),
        ]:
            huge = {"diangles": [{"angle": 0.0, "d": d}, {"angle": 1.0, "d": d}], "disc": 0.0}
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"plus": huge, "minus": {"diangles": [], "disc": 0.0}}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["lift", action, *[str(path)] * files]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(message) and captured.err.count("\n") == 1

    def test_installed_entry_point(self):
        # Run the declared console-script target as a process, as the
        # installed `zonalg` script would, so that no install is needed.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["zonalg"]
        module, func = target.split(":")
        script = f"import sys; sys.argv[0] = 'zonalg'; from {module} import {func}; sys.exit({func}())"
        # The child imports the same zonalg package as this test.
        src = str(Path(z.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        commands = [[sys.executable, "-c", script], [sys.executable, "-m", "zonalg"]]
        installed = shutil.which("zonalg")
        if installed:
            commands.append([installed])
        for cmd in commands:
            out = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env)
            assert out.returncode == 0, (cmd, out.stderr)
            assert out.stdout.startswith("usage: zonalg"), (cmd, out.stdout)
            bad = subprocess.run(cmd + ["frobnicate"], capture_output=True, text=True, env=env)
            assert bad.returncode == 2, (cmd, bad.stderr)


# Small malformed inputs for the contract fuzz: wrong JSON shapes, wrong
# field types, non-finite and out-of-range numbers, an integer of more digits
# than the decoder converts, nesting too deep for it, and bytes that are not
# text.
MALFORMED = {
    "m_list.json": "[]",
    "m_number.json": "1",
    "m_string.json": '"square"',
    "m_null.json": "null",
    "m_empty.json": "",
    "m_object.json": "{}",
    "m_diangles_type.json": '{"diangles": 5, "disc": 0.0}',
    "m_angle_type.json": '{"diangles": [{"angle": "x", "d": 1.0}], "disc": 0.0}',
    "m_angle_bool.json": '{"diangles": [{"angle": true, "d": 1}], "disc": false}',
    "m_values_bool.json": '{"nodes": [0, true], "values": [1, false]}',
    "m_angle_nan.json": '{"diangles": [{"angle": NaN, "d": 1.0}], "disc": 0.0}',
    "m_angle_inf.json": '{"diangles": [{"angle": 1e400, "d": 1.0}], "disc": 0.0}',
    "m_angle_bigint.json": '{"diangles": [{"angle": 1' + "0" * 400 + ', "d": 1.0}], "disc": 0.0}',
    "m_angle_digits.json": '{"diangles": [{"angle": 1' + "0" * 5000 + ', "d": 1.0}], "disc": 0.0}',
    "m_disc_inf.json": '{"diangles": [], "disc": Infinity}',
    "m_plus_list.json": '{"plus": [], "minus": {"diangles": [], "disc": 0.0}}',
    "m_minus_number.json": '{"plus": {"diangles": [], "disc": 0.0}, "minus": 3}',
    "m_nodes_number.json": '{"nodes": 5, "values": [1]}',
    "m_nodes_nested.json": '{"nodes": [[0.0]], "values": [1.0]}',
    "m_nodes_nan.json": '{"nodes": [0.0, NaN], "values": [1.0, 2.0]}',
    "m_values_inf.json": '{"nodes": [0.0, 1.0], "values": [1.0, Infinity]}',
    "m_values_nan.json": '{"nodes": [0, 1], "values": [NaN, 2]}',
    "m_values_bigint.json": '{"nodes": [0.0, 1.0], "values": [1.0, 1' + "0" * 400 + "]}",
    "m_nodes_unequal.json": '{"nodes": [0.0, 1.0], "values": [1.0]}',
    "m_nodes_empty.json": '{"nodes": [], "values": []}',
    "m_binary.json": b"\xff\xfe\x00{",
    "m_deep.json": "[" * 100_000 + "]" * 100_000,
}
FUZZ_FILES = sorted(p.name for p in DATA.glob("*.json")) + sorted(MALFORMED) + ["m_missing.json"]
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "3.2", "1e-300", "1e308", "nan", "inf", "-inf", "x"]),
    st.floats(-10.0, 10.0).map(repr),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for path in DATA.glob("*.json"):
        shutil.copy(path, root / path.name)
    for name, content in MALFORMED.items():
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return root


@st.composite
def cli_argv(draw):
    """argv over every subcommand; file names are resolved by the test."""
    file = lambda: draw(st.sampled_from(FUZZ_FILES))  # noqa: E731
    maybe = lambda flag, values: [flag, draw(values)] if draw(st.booleans()) else []  # noqa: E731
    command = draw(st.sampled_from(["body", "lift", "check", "reduce", "kernel", "rotation-fn"]))
    if command == "body":
        return ["body", draw(st.sampled_from(["stats", "vertices", "svg"])), file()] + maybe(
            "--polygonize-disc", st.integers(-2, 64).map(str)
        )
    if command == "lift":
        action = draw(st.sampled_from(["stats", "add", "scale", "eval"]))
        argv = ["lift", action, file()]
        if action == "add" or draw(st.booleans()):
            argv.append(file())
        return argv + [f"--value={draw(NUMBERS)}"] * draw(st.booleans())
    if command == "check":
        return (
            ["check", draw(st.sampled_from(["iso", "bm", "bmgen", "schwarz", "nope"]))]
            + maybe("--trials", st.integers(-1, 50).map(str))
            + maybe("--seed", st.integers(-1, 2**64).map(str))
            + maybe("--max-diangles", st.integers(-1, 12).map(str))
            + [f"--tol={draw(NUMBERS)}"] * draw(st.booleans())
        )
    if command == "reduce":
        return ["reduce", file()] + maybe("--polygonize-disc", st.integers(-2, 64).map(str))
    if command == "kernel":
        action = draw(st.sampled_from(["gram", "eig", "eval", "interp"]))
        argv = ["kernel", action] + [file()] * draw(st.booleans())
        argv += maybe("--nodes", st.integers(-1, 64).map(str))
        argv += [f"--ridge={draw(NUMBERS)}"] * draw(st.booleans())
        return argv + ["--csv"] * draw(st.booleans())
    return ["rotation-fn", file(), file()] + maybe("--nodes", st.integers(-1, 64).map(str)) + ["--csv"] * draw(
        st.booleans()
    )


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_cli_contract_fuzz(fuzz_dir, argv):
    # Exit 0 on success, 1 only for a check with a counted violation, 2 with
    # one error line and no output; never 3, and never NaN/Infinity in output.
    argv = [str(fuzz_dir / a) if a in FUZZ_FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, stderr)
    if code == 1:
        assert argv[0] == "check" and json.loads(stdout)["violations"] > 0, (argv, stdout)
    if code == 2:
        assert stdout == "", (argv, stdout)
        assert stderr.count("\n") == 1 and "error: " in stderr, (argv, stderr)
    assert "NaN" not in stdout and "Infinity" not in stdout, (argv, stdout)


# Every command that reads a file, with F at each file position in turn.
FILE_ARGVS = [
    ["body", "stats", "F"],
    ["body", "vertices", "F", "--polygonize-disc", "4"],
    ["body", "svg", "F"],
    ["lift", "stats", "F"],
    ["lift", "add", "F", "lifted_sb.json"],
    ["lift", "add", "lifted_sb.json", "F"],
    ["lift", "scale", "F", "--value", "2"],
    ["lift", "eval", "F", "--value", "0.5"],
    ["reduce", "F"],
    ["kernel", "eval", "F"],
    ["kernel", "interp", "F", "--ridge", "1e-10"],
    ["rotation-fn", "F", "segment.json"],
    ["rotation-fn", "square.json", "F"],
]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_input_error(fuzz_dir, name):
    # The same contract as the fuzz, on every file-reading command: exit 2,
    # one error line, nothing on stdout.
    for argv in FILE_ARGVS:
        argv = [str(fuzz_dir / name) if a == "F" else str(fuzz_dir / a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code == 2, (argv, code, err.getvalue())
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


INTERP_ERRORS = {
    "m_values_inf.json": "error: values must be finite, got inf at index 1\n",
    "m_values_nan.json": "error: values must be finite, got nan at index 0\n",
    "m_deep.json": "error: invalid JSON: maximum recursion depth exceeded",
    "m_nodes_empty.json": "error: interpolation needs at least one node\n",
}


@pytest.mark.parametrize("name", sorted(INTERP_ERRORS))
@pytest.mark.parametrize("ridge", ["0", "1e-10"])
def test_interp_input_error_message(fuzz_dir, name, ridge, capsys):
    # non-finite values are named before any solve is tried
    assert run(["kernel", "interp", str(fuzz_dir / name), "--ridge", ridge]) == 2
    assert capsys.readouterr().err.startswith(INTERP_ERRORS[name])


def test_negative_zero_angle_prints_as_zero(tmp_path, capsys):
    # -0.0 folds to +0.0, so the equal bodies print the same bytes
    outs = []
    for angle in ("-0.0", "0.0"):
        body = f'{{"diangles": [{{"angle": {angle}, "d": 1.0}}], "disc": 0.0}}'
        path = tmp_path / f"x{angle}.json"
        path.write_text(f'{{"plus": {body}, "minus": {{"diangles": [], "disc": 0.5}}}}')
        assert run(["lift", "scale", str(path), "--value", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert '"angle": 0.0' in outs[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_lift_scale_nonfinite_factor(value, capsys):
    # a negative factor is valid for lift scale, so the message names finiteness only
    assert run(resolve(["lift", "scale", "lifted_sb.json", f"--value={value}"])) == 2
    assert capsys.readouterr().err == f"error: scale factor must be finite, got {float(value)}\n"
