import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
]

# Goldens pinned to the compiled backend: the numpy fallback sums in another
# order and differs from them in the last ulp.
COMPILED_ONLY = {"check_bmgen_50.json"}


def golden_comparable(golden):
    """Whether `golden` is expected to match byte for byte on the active backend."""
    return z.BACKEND == "compiled" or golden not in COMPILED_ONLY


def resolve(argv):
    return [str(DATA / a) if (DATA / a).is_file() else a for a in argv]


@pytest.mark.parametrize(
    "argv,golden",
    [
        pytest.param(
            argv,
            golden,
            id=golden,
            marks=pytest.mark.skipif(
                not golden_comparable(golden),
                reason="golden is pinned to the compiled backend; the numpy "
                "fallback's summation order differs in the last ulp",
            ),
        )
        for argv, golden in GOLDEN_CASES
    ],
)
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
        for name in ("body_svg_disc.svg", "body_svg_square.svg"):
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
        ],
        ids=" ".join,
    )
    def test_bad_arguments_are_usage_errors(self, argv, capsys):
        assert run(resolve(argv)) == 2
        assert "error:" in capsys.readouterr().err

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        def boom(_):
            raise RuntimeError("boom")

        monkeypatch.setattr(z.rkhs, "gram", boom)
        assert run(["kernel", "gram"]) == 3
        assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("inequality", ["iso", "bm", "bmgen", "schwarz"])
    def test_empty_campaign_min_slack_null(self, inequality, capsys):
        assert run(["check", inequality, "--trials", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["min_slack"] is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_result_is_input_error(self, tmp_path, capsys):
        huge = {"diangles": [{"angle": 0.0, "d": 1e200}, {"angle": 1.0, "d": 1e200}], "disc": 0.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"plus": huge, "minus": {"diangles": [], "disc": 0.0}}))
        assert run(["lift", "stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: result is not finite")

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
