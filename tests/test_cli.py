import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvqkd import cli, security
from dvqkd.roots import REL_TOL

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(token):
    raise ValueError(f"{token} is not a JSON token")


def strict_json(text):
    """The JSON document ``text``, refusing the NaN and Infinity tokens Python accepts."""
    return json.loads(text, parse_constant=_no_constant)


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
        payload = strict_json(out)
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

    @pytest.mark.parametrize(
        "e", ["1e-17", "1e-300", repr(math.nextafter(2.0 * security.qber_threshold(), 0.0))]
    )
    def test_spdc_bright_pairs_at_tiny_and_near_threshold_depolarization(self, capsys, e):
        # y_th(1e-17) = 3.3e-16; the last e is the float just below 2 Q_th, where y_th
        # rounds to 1
        code, out, _ = run(capsys, "tmin", "--model", "spdc", "--nu", "1e-3", "--e", e, "--d", "0")
        assert code == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        assert math.isfinite(float(dict(zip(header, row))["t_min_bright_pairs"]))

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (
                ["--model", "thermal-bath", "--p", "1", "--e", "0.3", "--d", "1e-3"],
                {"t_min_numeric": "nan", "t_min_analytic": "inf"},
            ),
            (
                ["--model", "spdc", "--nu", "0.01", "--e", "0.3"],
                {"t_min_numeric": "nan", "t_min_rare_pairs": "inf", "t_min_bright_pairs": "inf"},
            ),
        ],
    )
    def test_infeasible_json_is_strict(self, capsys, argv, cells):
        # RFC 8259 has no NaN or Infinity token: a non-finite float is its CSV text
        code, out, _ = run(capsys, "tmin", *argv, "--format", "json")
        assert code == 0
        (row,) = strict_json(out)["rows"]
        assert {k: row[k] for k in cells} == cells
        assert row["feasible"] is False


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "spdc", "--nu", "1e-4", "--criteria", "security,ng",
         "--t-grid", "1e-2:1e-1:3:log"],
        ["point", "--model", "noise-before", "--t", "0.1", "--mu", "1e-3"],
        ["witness", "--ps", "1e-3"],
        ["witness", "--ps", "1e-3", "--pc", "1e-10"],
        ["tmin", "--model", "thermal-bath", "--d", "1e-3"],
        ["tmin", "--model", "spdc", "--nu", "1e-2", "--d", "1e-9"],
        ["mc-validate", "--model", "spdc", "--samples", "1000"],
        ["ng-curve", "--points", "16"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_csv_header_is_json_row_keys(capsys, argv):
    code, csv_out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    header, *lines = csv_out.splitlines()
    rows = strict_json(json_out)["rows"]
    assert len(rows) == len(lines)
    assert all(list(row) == header.split(",") for row in rows)


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


# cells of the reference that the library now computes more precisely, keyed by
# (command, data row, column), with their mpmath values and the relative
# tolerance each is checked to; every other cell must match byte for byte.
# point: the old closed forms cancelled (60 digits).  witness: ng_boundary
# stopped refining P_S at 1e-10 absolute before its Newton inversion (60 digits).
# sweep: the non-Gaussian mu_max that moved with that inversion, against the
# 50-digit boundary (thermal-bath P_C equal to the Gaussian family's P_C at the
# same P_S), within the solver's relative bracket width REL_TOL.  tmin: the
# closed form d (1 - 2 Q_th) / Q_th read a QBER threshold bisected to 1e-9
# absolute (40 digits).
CORRECTED = {
    ("point", 1, "p_coincidence"): (1.24020594287e-08, 1e-8),
    ("point", 1, "omega2plus"): (2.48040983696e-08, 1e-8),
    ("witness", 1, "ng_boundary"): (4.98901153172e-10, 1e-8),
    ("tmin", 1, "t_min_analytic"): (7.08860682796e-03, 1e-8),
    ("sweep", 121, "mu_max"): (5.0005209625e-09, REL_TOL),
    ("sweep", 122, "mu_max"): (6.83307392113e-09, REL_TOL),
    ("sweep", 124, "mu_max"): (1.27591560415e-08, REL_TOL),
    ("sweep", 125, "mu_max"): (1.74352181642e-08, REL_TOL),
    ("sweep", 126, "mu_max"): (2.38251086001e-08, REL_TOL),
    ("sweep", 127, "mu_max"): (3.25570320567e-08, REL_TOL),
    ("sweep", 131, "mu_max"): (1.13531904855e-07, REL_TOL),
    ("sweep", 139, "mu_max"): (1.38166188304e-06, REL_TOL),
    ("sweep", 144, "mu_max"): (6.59577189343e-06, REL_TOL),
}


@pytest.mark.parametrize("name, argv, out_file", _readme_examples())
def test_readme_example_matches_reference(name, argv, out_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    text = (tmp_path / out_file).read_text() if out_file else capsys.readouterr().out
    want = (REFERENCE / f"{name}.csv").read_text()
    corrected = {key[1:]: value for key, value in CORRECTED.items() if key[0] == name}
    if not corrected:
        assert text == want
        return
    got_lines, want_lines = text.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines) and got_lines[0] == want_lines[0]
    header = want_lines[0].split(",")
    for row, (got_line, want_line) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        for column, got, ref in zip(header, got_line.split(","), want_line.split(",")):
            if (row, column) in corrected:
                value, rel = corrected[row, column]
                assert float(got) == pytest.approx(value, rel=rel), (row, column)
            else:
                assert got == ref, (row, column)


# zero, one, subnormal and tiny values, and values a few ulps short of 1
EXTREME = ["0", "1", "1e-300", "1e-305", "5e-324", "2.2e-308", "1e-15", "1e-12", "1e-9", "1e-3",
           "0.22", "0.3", "0.5", "0.9999999"]


def test_extreme_values_of_every_model_end_in_an_exit_code_and_one_line(capsys):
    rng = np.random.default_rng(23)
    for _ in range(300):
        command = rng.choice(["sweep", "tmin", "point"])
        argv = [command, "--model", rng.choice(["thermal-bath", "noise-before", "spdc"])]
        argv += ["--noise", rng.choice(["thermal", "poisson"])]
        argv += [f"{flag}={rng.choice(EXTREME)}" for flag in ("--p", "--e", "--d", "--nu")]
        if command == "sweep":
            argv += ["--criteria", "security,nc,ng", "--t-grid", f"{rng.choice(EXTREME)}:1:5:log"]
        elif command == "point":
            argv += [f"--t={rng.choice(EXTREME)}", f"--mu={rng.choice(EXTREME)}"]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3) and len(err.splitlines()) == (code == 2), (argv, err)


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
        ["witness", "--ps", "1e-3", "--out", "/no/such/dir/x.csv"],
        ["witness", "--ps", "1e-3", "--out", "."],
        # a QBER that rounds above 1/2 and a subnormal pair mean once printed the whole array
        ["tmin", "--model", "thermal-bath", "--p", "1e-300", "--e", "1"],
        ["sweep", "--model", "noise-before", "--p", "1e-15", "--e", "0.9999999", "--d", "0.9999999",
         "--noise", "poisson", "--criteria", "security", "--t-grid", "1e-9:1:5:log"],
        ["sweep", "--model", "spdc", "--p", "0.22", "--e", "1e-12", "--d", "1e-300",
         "--nu", "5e-324", "--criteria", "ng", "--t-grid", "0.5:1:3:lin"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "thermal-bath", "--t-grid", "1e-3:1:4:log", "--mu", "0.3"],
        ["tmin", "--model", "thermal-bath", "--p", "1", "--d", "1e-3", "--mu", "0.3"],
    ],
)
def test_mu_is_rejected_where_the_solver_sets_it(capsys, argv):
    # sweep scans mu itself and t_min_numeric solves at mu = 0: a given --mu would be ignored
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_witness_probabilities_summing_past_one_name_both_flags(capsys):
    code, out, err = run(capsys, "witness", "--ps", "0.3", "--pc", "0.8")
    assert (code, out) == (2, "")
    assert err == "error: --ps and --pc sum to more than 1: 0.3 + 0.8\n"
    # a sum above 1 by rounding alone is forgiven, as ClickStats forgives it
    code, _, _ = run(capsys, "witness", "--ps", "0.4", "--pc", "0.60000000000001")
    assert code == 0


def test_negative_seed_names_the_flag(capsys):
    code, out, err = run(capsys, "mc-validate", "--model", "spdc", "--samples", "10", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, out):
    code, stdout, err = run(capsys, "witness", "--ps", "1e-3", "--out", str(tmp_path / out))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_spdc_monte_carlo_pair_mean_bound(capsys):
    code, _, err = run(capsys, "mc-validate", "--model", "spdc", "--nu", "1e12")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_cli_runtime_does_not_load_scipy():
    # nor any other package only the tests use
    probe = (
        "import sys, dvqkd.cli; test_only = {'scipy', 'mpmath', 'hypothesis', 'pytest'}; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & test_only))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


# flag values with NaN, +-inf, 0, negatives and 1e300; sizes stay small (at most 1e4
# Monte Carlo samples, 20 grid points and 64 table points) so each run takes milliseconds
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e300", "-1e300", "1e-300"]),
    st.sampled_from(EXTREME),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.integers(min_value=-12, max_value=0).map(lambda k: f"1e{k}"),
)
_SAMPLES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-3", "2.5", "1e300"]),
    st.integers(min_value=1, max_value=10_000).map(str),
)
_GRID = st.builds(
    "{}:{}:{}:{}".format,
    st.one_of(st.integers(min_value=-12, max_value=-1).map(lambda k: f"1e{k}"), _NUMBER),
    st.one_of(st.just("1"), _NUMBER),
    st.one_of(st.integers(min_value=2, max_value=20).map(str), st.sampled_from(["-1", "1", "nan"])),
    st.sampled_from(["log", "lin", "cubic"]),
)
_MODEL = {
    "--p": _NUMBER,
    "--nu": _NUMBER,
    "--mu": _NUMBER,
    "--e": _NUMBER,
    "--d": _NUMBER,
    "--noise": st.sampled_from(["thermal", "poisson"]),
    "--format": st.sampled_from(["csv", "json"]),
}
# command -> (flags always given, flags drawn or left out)
_COMMANDS = {
    "sweep": (
        {"--t-grid": _GRID},
        {**_MODEL, "--criteria": st.sampled_from(["security", "nc,ng", "security,nc,ng", "vibes"])},
    ),
    "point": ({"--t": _NUMBER}, _MODEL),
    "witness": ({"--ps": _NUMBER}, {"--pc": _NUMBER, "--format": _MODEL["--format"]}),
    "tmin": ({}, _MODEL),
    "mc-validate": (
        {},
        {
            **_MODEL,
            "--t": _NUMBER,
            "--samples": _SAMPLES,
            "--seed": st.integers(min_value=-3, max_value=2**64).map(str),
        },
    ),
    "ng-curve": (
        {},
        {
            "--points": st.one_of(
                st.integers(min_value=-5, max_value=64).map(str), st.sampled_from(["nan", "1e300"])
            ),
            "--format": _MODEL["--format"],
        },
    ),
}
_MODEL_NAMES = st.sampled_from(["thermal-bath", "noise-before", "spdc"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    if command not in ("witness", "ng-curve"):
        required = {**required, "--model": _MODEL_NAMES}
    if command in ("sweep", "tmin"):
        optional = {k: v for k, v in optional.items() if k != "--mu"}
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    # --flag=value, so that values such as -inf are not read as options
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if code != 2 and "--format=json" in argv:
        strict_json(out.getvalue())
