"""Command-line interface: exit codes, summaries and artifact files."""

import dataclasses
import json

import pytest

from prodiso import cli
from prodiso.cli import build_parser, main
from prodiso.isoprofile import clt_upper_bound, tensor_lower_bound
from prodiso.measures import MeasureSpec
from prodiso.perturb import design_bump
from prodiso.spectral import DEFAULT_SOLVER_MARGIN, GapOptions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectral_gap(capsys):
    code, out, _ = run(capsys, "spectral-gap", "--measure", "logistic")
    assert code == 0
    assert out.strip() == "spectral-gap 0.250000"


def test_spectral_gap_json_measure(capsys):
    code, out, _ = run(capsys, "spectral-gap", "--measure",
                       '{"kind": "gaussian", "sigma": 2.0}')
    assert code == 0
    assert out.strip() == "spectral-gap 0.250000"


def test_stationary(capsys):
    code, out, _ = run(capsys, "stationary", "--measure", "logistic",
                       "--halfspace", "bisector-", "--dim", "2")
    assert code == 0
    assert "periodic_minus" in out


def test_stationary_sees_the_exponential_kink(capsys):
    # psi' = -sign(x) jumps across the boundary line off its centre
    code, out, _ = run(capsys, "stationary", "--measure", "exponential",
                       "--halfspace", "bisector-:0.3")
    assert code == 0
    assert out.split()[:2] == ["stationary", "not_stationary"]
    assert float(out.split("residual=")[1]) > 1.0


def test_stable_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "bisector", "--dim", "3")
    assert code == 0
    assert "unstable" in out
    assert "p2_infimum" in out

    code, out, _ = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "bisector", "--dim", "2")
    assert code == 0
    assert "stable" in out.split()

    # Gaussian at threshold: inconclusive maps to exit 2
    code, out, _ = run(capsys, "stable", "--measure", "gaussian",
                       "--halfspace", "bisector", "--dim", "3")
    assert code == 2
    assert "inconclusive" in out


def test_stable_far_bisector_is_unstable(capsys):
    # tau = 4.5: the boundary density peaks at 1.7e-23 in absolute terms
    code, out, _ = run(capsys, "stable", "--measure",
                       '{"kind": "power", "p": 4}', "--halfspace",
                       "bisector-:3.2", "--dim", "3")
    assert code == 0
    assert "unstable" in out.split()
    assert "=inf" not in out


def test_stable_coordinate(capsys):
    code, out, _ = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "coordinate:3.0", "--dim", "2")
    assert code == 0
    assert "stable" in out.split()


def test_stable_csv_artifact(tmp_path, capsys):
    # stable has no table of its own: the artifact's keys become rows
    path = tmp_path / "stable.csv"
    code, _, _ = run(capsys, "stable", "--measure", "logistic",
                     "--halfspace", "coordinate:3.0", "--out", str(path),
                     "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1)
                for line in path.read_text().splitlines())
    assert rows["key"] == "value"
    assert rows["measure"] == "logistic"
    assert rows["tag"] == "stable"
    assert abs(float(rows["certificates.lambda"]) - 0.25) < 1e-9


def test_stable_explicit_direction(capsys):
    # "v1,v2;t" names the bisector (1, -1)/sqrt 2 at t = 0 directly
    code, out, _ = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "1,-1;0", "--dim", "2")
    assert code == 0
    certs = dict(w.split("=") for w in out.split()[2:])
    assert out.split()[1] == "stable"
    assert abs(float(certs["p1_eigenvalue"]) - 1.5) < 1e-4
    code, _, err = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "1,-1;0", "--dim", "3")
    assert code == 1
    assert "--dim" in err


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "--measure", "logistic",
                       "--t", "0.25")
    assert code == 0
    assert out.strip() == "profile 0.187500"


def test_envelope_writes_csv(tmp_path, capsys):
    path = tmp_path / "env.csv"
    code, _, _ = run(capsys, "envelope", "--measure", "logistic",
                     "--grid-t", "11", "--out", str(path), "--format", "csv")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,one_dim,lower,upper"
    assert len(lines) == 12


def test_envelope_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "envelope", "--measure", "logistic",
                         "--grid-t", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("grid_t", ["2", "4", "101"])
def test_envelope_reports_the_level_one_half(grid_t, capsys):
    # an even level count has no node at t = 1/2
    code, out, _ = run(capsys, "envelope", "--measure", "logistic",
                       "--grid-t", grid_t)
    assert code == 0
    mid = tensor_lower_bound(MeasureSpec.logistic(), 0.5)
    assert out.strip() == f"envelope levels={grid_t} lower(1/2)={mid:.6f}"


def test_clt(tmp_path, capsys):
    path = tmp_path / "clt.json"
    code, out, _ = run(capsys, "clt", "--measure", "logistic",
                       "--n-max", "4", "--out", str(path))
    assert code == 0
    trace = json.loads(path.read_text())["trace"]
    assert len(trace) == 4
    assert abs(trace[0] - 0.25) < 1e-6


def test_envelope_writes_the_clt_trace(tmp_path, capsys):
    path = tmp_path / "env.json"
    code, _, _ = run(capsys, "envelope", "--measure", "logistic",
                     "--grid-t", "5", "--n-max", "4", "--out", str(path))
    assert code == 0
    trace = json.loads(path.read_text())["clt_trace"]
    assert trace == clt_upper_bound(MeasureSpec.logistic(), 0.5, 4)


def test_perturb_commands(tmp_path, capsys):
    path = tmp_path / "design.json"
    code, out, _ = run(capsys, "perturb-design", "--out", str(path))
    assert code == 0
    assert "feasible=True" in out
    design = json.loads(path.read_text())

    bump_json = json.dumps(design["bump"])
    code, out, _ = run(capsys, "perturb-slopes", "--bump", bump_json)
    assert code == 0
    assert "k_dot=0.422000" in out

    code, out, _ = run(capsys, "perturb-validate", "--bump", bump_json,
                       "--eps", "0.01")
    assert code == 0
    assert "baselines=" in out


def test_perturb_validate_defaults_to_the_designed_bump(tmp_path, capsys):
    paths = tmp_path / "default.json", tmp_path / "given.json"
    code, _, _ = run(capsys, "perturb-validate", "--eps", "0.01",
                     "--out", str(paths[0]))
    assert code == 0
    code, _, _ = run(capsys, "perturb-validate", "--eps", "0.01",
                     "--bump", design_bump()[0].to_json(), "--out", str(paths[1]))
    assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tensor_oracle_disagreement_exits_1(monkeypatch, capsys):
    real = cli.tensor_oracle_2d
    monkeypatch.setattr(cli, "tensor_oracle_2d", lambda *args: dataclasses.replace(
        real(*args), agrees=False))
    code, out, _ = run(capsys, "tensor-oracle", "--count", "2", "--seed", "9")
    assert code == 1
    assert "disagreements=2" in out


def test_tensor_oracle(capsys):
    code, out, _ = run(capsys, "tensor-oracle", "--count", "3", "--seed", "9")
    assert code == 0
    assert "disagreements=0" in out


@pytest.mark.parametrize("grid_n, code, error", [
    ("3", 0, None), ("201", 0, None),
    ("4", 1, "DomainError"), ("1", 1, "DomainError"),
    ("203", 1, "OutOfBudget"),
])
def test_tensor_oracle_grid_n_range(capsys, grid_n, code, error):
    # as the README states: odd and within 3..201
    got, _, err = run(capsys, "tensor-oracle", "--count", "1", "--grid-n",
                      grid_n)
    assert got == code
    assert (error in err) if error else not err


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["stable", "--measure", "logistic"])   # missing --halfspace
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["envelope", "--grid-t", "0"],      # no level to report
    ["envelope", "--grid-t", "x"],
    ["tensor-oracle", "--count", "-2"],
    ["stable", "--dim", "0", "--halfspace", "coordinate"],   # no axis
    ["stationary", "--dim", "-1", "--halfspace", "coordinate"],
])
def test_out_of_range_integers_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert f"argument {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["envelope", "--n-max", "-3"],
    ["envelope", "--n-max", "129"],
    ["clt", "--n-max", "0"],
    ["clt", "--n-max", "129"],
])
def test_trace_lengths_outside_their_range_exit_64(argv, capsys):
    # envelope reads 0 as "no trace"; both cap the trace at 128 sums
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "argument --n-max" in capsys.readouterr().err


def test_trace_length_bounds_are_inclusive():
    parser = build_parser()
    assert parser.parse_args(["envelope", "--n-max", "0"]).n_max == 0
    assert parser.parse_args(["clt", "--n-max", "1"]).n_max == 1
    assert parser.parse_args(["clt", "--n-max", "128"]).n_max == 128


def test_stable_three_components_exit_1(capsys):
    code, out, err = run(capsys, "stable", "--measure", "logistic",
                         "--halfspace", "1,1,1;0", "--dim", "3")
    assert (code, out) == (1, "")
    assert "DomainError" in err


def test_perturb_design_csv_lists_the_epsilons(tmp_path, capsys):
    # a list-valued artifact entry is one quoted, ';'-joined row
    path = tmp_path / "design.csv"
    code, _, _ = run(capsys, "perturb-design", "--out", str(path),
                     "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1)
                for line in path.read_text().splitlines())
    assert rows["epsilons"] == '""'
    assert rows["feasible"] == "True"
    assert rows["bump.centers"] == "[1.0, 0.0]"


@pytest.mark.parametrize("argv, message", [
    (["perturb-slopes", "--bump", "notjson"], "Expecting value"),
    (["spectral-gap", "--measure", "gaussian", "--out", "no/such/a.json"],
     "No such file or directory"),
    # malformed descriptors name the missing or mistyped field
    (["spectral-gap", "--measure", '{"kind": "power"}'],
     "DomainError: descriptor lacks the field 'p'"),
    (["spectral-gap", "--measure", '{"kind": "gaussian_bump", "eps": 0.1}'],
     "DomainError: descriptor lacks the field 'bump'"),
    (["spectral-gap", "--measure", '{"kind": 1}'],
     "DomainError: descriptor field 'kind'"),
    (["spectral-gap", "--measure", '{"kind": "gaussian", "sigma": null}'],
     "DomainError: descriptor field 'sigma'"),
    (["spectral-gap", "--measure",
      '{"kind": "gaussian_bump", "bump": [1], "eps": 0.1}'],
     "DomainError: a bump descriptor must be a JSON object"),
    (["perturb-slopes", "--bump", '{"coefficients": [1]}'],
     "DomainError: descriptor lacks the field 'centers'"),
    (["perturb-slopes", "--bump",
      '{"coefficients": [1], "centers": ["x"], "widths": [1]}'],
     "DomainError: descriptor field 'centers'"),
    (["perturb-slopes", "--bump", "[1]"],
     "DomainError: a bump descriptor must be a JSON object"),
])
def test_bad_input_and_unwritable_out_exit_1(argv, message, tmp_path,
                                             monkeypatch, capsys):
    # a ValueError or OSError, not a library error, still exits 1, and
    # outside input never reaches the user as a traceback
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    for argv in (["spectral-gap"], ["envelope"],
                 ["stable", "--halfspace", "coordinate"]):
        args = parser.parse_args(argv)
        assert GapOptions(args.tail_mass, args.grid_n) == GapOptions()
    assert args.solver_margin == DEFAULT_SOLVER_MARGIN


@pytest.mark.parametrize("margin, halfspace", [
    ("0", "coordinate:0.5"), ("-1", "coordinate:0.5"),
    ("nan", "coordinate:0.5"), ("-1", "bisector"),
])
def test_solver_margin_must_be_positive(margin, halfspace, capsys):
    # outside (0, inf) the guard bands overlap or vanish: no verdict
    code, out, err = run(capsys, "stable", "--measure", "logistic",
                         "--halfspace", halfspace, "--solver-margin", margin)
    assert (code, out) == (1, "")
    assert "DomainError" in err


@pytest.mark.parametrize("argv", [
    ["clt", "--grid-n", "8001"],
    ["clt", "--h", "0.01"],
    ["profile", "--tail-mass", "1e-10"],
    ["envelope", "--solver-margin", "0.1"],
    ["tensor-oracle", "--tail-mass", "1e-10"],
])
def test_flags_a_command_does_not_read_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64


def test_gap_of_a_too_coarse_mesh_exits_1(capsys):
    code, out, err = run(capsys, "spectral-gap", "--measure", "logistic",
                         "--grid-n", "5")
    assert code == 1 and out == ""
    assert "NoConvergence" in err


def test_computation_error_exit_1(capsys):
    code, _, err = run(capsys, "spectral-gap", "--measure", "nope")
    assert code == 1
    assert "DomainError" in err


@pytest.mark.parametrize("argv", [
    ["spectral-gap", "--grid-n", "4"],
    ["spectral-gap", "--grid-n", "2"],
    ["stable", "--halfspace", "coordinate:0.5", "--grid-n", "4"],
])
def test_gap_mesh_must_be_odd_and_at_least_3(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "DomainError" in err


def test_bad_halfspace_spec(capsys):
    code, _, err = run(capsys, "stable", "--measure", "logistic",
                       "--halfspace", "diagonal")
    assert code == 1
    assert "half-space" in err
