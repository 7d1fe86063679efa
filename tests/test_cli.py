import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dvqkd import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_csv_schema_and_row_count(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--model", "thermal-bath", "--criteria", "security,nc,ng",
            "--p", "1", "--e", "0", "--d", "0", "--t-grid", "1e-3:1e-1:4:log",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "model,criterion,T,mu_max,feasible"
        assert len(lines) == 1 + 3 * 4
        assert all(line.count(",") == 4 for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "sweep", "--model", "noise-before", "--criteria", "security",
            "--noise", "poisson", "--t-grid", "1e-2:1e-1:3:log",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_sorted_by_criterion_then_t(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--model", "thermal-bath", "--criteria", "ng,security",
            "--t-grid", "1e-3:1e-2:3:log",
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        keys = [(row[1], float(row[2])) for row in rows]
        order = {"security": 0, "nonclassical": 1, "nongaussian": 2}
        assert keys == sorted(keys, key=lambda k: (order[k[0]], k[1]))

    def test_all_infeasible_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--model", "thermal-bath", "--criteria", "security",
            "--d", "1e-3", "--t-grid", "1e-5:1e-4:3:log",
        )
        assert code == 3
        assert all(line.endswith("false") for line in out.strip().split("\n")[1:])

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--model", "spdc", "--nu", "1e-4", "--criteria", "security",
            "--t-grid", "1e-2:1e-1:3:log", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["model"] == "spdc"
        assert payload["meta"]["nu"] == 1e-4
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"model", "criterion", "T", "mu_max", "feasible"}

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "thermal-bath", "--t-grid", "0:1:5:log"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().split("\n")) == 1

    def test_unknown_criterion_is_config_error(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "thermal-bath", "--criteria", "vibes",
            "--t-grid", "1e-2:1e-1:3:log",
        )
        assert code == 2
        assert err.startswith("error: ")


class TestPoint:
    def test_clean_heralded_point_is_secure_and_nongaussian(self, capsys):
        code, out, _ = run(
            capsys,
            "point", "--model", "spdc", "--nu", "1e-4", "--t", "1e-2",
            "--mu", "1e-6", "--e", "0", "--d", "0",
        )
        assert code == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        assert float(record["delta_i"]) > 0.0
        assert record["nongaussian"] == "true"
        assert record["nonclassical"] == "true"

    def test_noisy_point_loses_nongaussianity(self, capsys):
        code, out, _ = run(
            capsys,
            "point", "--model", "thermal-bath", "--t", "1e-2", "--mu", "1e-3",
        )
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        assert record["nongaussian"] == "false"


class TestWitnessCommand:
    def test_boundaries_reported(self, capsys):
        code, out, _ = run(capsys, "witness", "--ps", "1e-3")
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        assert float(record["ng_boundary"]) < float(record["nc_boundary"])

    def test_classification(self, capsys):
        code, out, _ = run(capsys, "witness", "--ps", "1e-2", "--pc", "1e-9")
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        assert record["nonclassical"] == "true"
        assert record["nongaussian"] == "true"


class TestTmin:
    def test_thermal_bath(self, capsys):
        code, out, _ = run(capsys, "tmin", "--model", "thermal-bath", "--d", "1e-3")
        assert code == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        numeric = float(record["t_min_numeric"])
        analytic = float(record["t_min_analytic"])
        assert numeric == pytest.approx(analytic, rel=0.1)

    def test_spdc_reports_all_regimes(self, capsys):
        code, out, _ = run(
            capsys, "tmin", "--model", "spdc", "--nu", "1e-2", "--d", "1e-9"
        )
        header, row = [line.split(",") for line in out.strip().split("\n")]
        record = dict(zip(header, row))
        assert float(record["t_min_numeric"]) == pytest.approx(5e-3, rel=0.1)
        assert float(record["t_min_nongaussian"]) == pytest.approx(5e-3, rel=1e-9)


class TestMcValidate:
    def test_sigma_distances_small(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-validate", "--model", "noise-before", "--noise", "poisson",
            "--t", "0.4", "--mu", "0.2", "--p", "0.8",
            "--samples", "2e5", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        idx = header.index("sigma_distance")
        sigmas = [float(line.split(",")[idx]) for line in lines[1:]]
        assert len(sigmas) >= 7
        assert max(sigmas) <= 4.0

    def test_heralded_model_statistics_covered(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-validate", "--model", "spdc", "--nu", "0.05",
            "--t", "0.3", "--mu", "0.1", "--d", "1e-3",
            "--samples", "2e5", "--seed", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        names = {line.split(",")[header.index("statistic")] for line in lines[1:]}
        assert {"p_exp", "qber", "p_multi", "y", "p_single", "p_coincidence"} <= names
        idx = header.index("sigma_distance")
        assert max(float(line.split(",")[idx]) for line in lines[1:]) <= 4.0


class TestCurveReproduction:
    def test_three_criteria_over_four_decades(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--model", "thermal-bath", "--criteria", "security,nc,ng",
            "--p", "1", "--e", "0", "--d", "0", "--t-grid", "1e-4:1:60:log",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 180
        curves = {}
        for line in lines[1:]:
            model, criterion, t, mu, feasible = line.split(",")
            curves.setdefault(criterion, []).append((float(t), float(mu)))
            assert feasible == "true"
        # sufficiency/necessity ordering of the boundaries at low transmittance
        for (t, ng), (_, sec), (_, nc) in zip(
            curves["nongaussian"], curves["security"], curves["nonclassical"]
        ):
            if t <= 0.1:
                assert ng <= sec <= nc, t


class TestNgCurve:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "ng-curve", "--points", "64")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "V,n,p_single,p_coincidence"
        assert len(lines) > 16


def test_missing_command_is_config_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert err.startswith("error: ")


def _readme_examples():
    """(reference name, argv, file written by --out or None) of each README CLI example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for command in block.replace("\\\n", " ").splitlines():
        if command.startswith("dvqkd "):
            argv = shlex.split(command)[1:]
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            examples.append(pytest.param(argv[0], argv, out, id=argv[0]))
    return examples


# cells of the reference that cancelled in their old closed forms, with their
# 60-digit mpmath values; every other cell must match byte for byte
CORRECTED = {
    ("point", "p_coincidence"): 1.24020594287e-08,
    ("point", "omega2plus"): 2.48040983696e-08,
}


@pytest.mark.parametrize("name, argv, out_file", _readme_examples())
def test_readme_example_matches_reference(name, argv, out_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    text = (tmp_path / out_file).read_text() if out_file else capsys.readouterr().out
    want = (REFERENCE / f"{name}.csv").read_text()
    corrected = {column: value for (command, column), value in CORRECTED.items() if command == name}
    if not corrected:
        assert text == want
        return
    got_lines, want_lines = text.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines) and got_lines[0] == want_lines[0]
    header = want_lines[0].split(",")
    for got_line, want_line in zip(got_lines[1:], want_lines[1:]):
        for column, got, ref in zip(header, got_line.split(","), want_line.split(",")):
            if column in corrected:
                assert float(got) == pytest.approx(corrected[column], rel=1e-8), column
            else:
                assert got == ref, column


@pytest.mark.parametrize(
    "argv",
    [
        ["tmin", "--model", "spdc", "--nu", "0.01", "--e", "0.3"],
        ["tmin", "--model", "thermal-bath", "--e", "0.3", "--d", "1e-3"],
        ["point", "--model", "noise-before", "--t", "1e-3", "--mu", "1e300"],
        ["mc-validate", "--model", "thermal-bath", "--samples", "inf"],
        ["mc-validate", "--model", "thermal-bath", "--samples", "1e20"],
        ["sweep", "--model", "thermal-bath", "--t-grid", "1e-3:1:1000000000:log"],
        ["ng-curve", "--points", "1000000000"],
    ],
)
def test_extreme_inputs_end_in_an_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 2, 3)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--ps", "nan"],
        ["witness", "--ps", "1e-3", "--pc", "nan"],
    ],
)
def test_nan_witness_inputs_are_config_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_spdc_monte_carlo_pair_mean_bound(capsys):
    code, _, err = run(capsys, "mc-validate", "--model", "spdc", "--nu", "1e12")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_cli_runtime_does_not_load_scipy():
    probe = "import sys, dvqkd.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"
