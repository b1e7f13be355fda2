import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dipolefield
import dipolefield.blp as blp
import dipolefield.stochastic as stochastic
from dipolefield.cli import build_parser, main


REFERENCE = (
    "omega = 2.0\n"
    "kappa = 1.0\n"
    "beta_s = 1.0\n"
    f"i0 = {2.0 / math.pi!r}\n"
    "beta = 1.0\n"
)

WEAK = (
    "omega = 5.0\n"
    "kappa = 1.0\n"
    "beta_s = 0.2\n"
    f"i0 = {0.1 / math.pi!r}\n"
    "beta = 1.0\n"
)

ZERO_FIELD = (
    "omega = 5.0\n"
    "kappa = 1.0\n"
    "beta_s = 0.5\n"
    "i0 = 0.0\n"
    "beta = 1.0\n"
)

SPECTRUM = "omega = 10.0\nkappa = 1.0\nbeta_s = 0.0\ni0 = 1.0\nbeta = 1.0\n"

#: a field variance pi*beta*i0 that overflows
HUGE_VARIANCE = "omega = 1.0\nkappa = 1.0\nbeta_s = 0.0\ni0 = 1e308\nbeta = 10.0\n"

#: a finite field variance pi*beta*i0 whose periodogram would overflow
OVERFLOWING_VARIANCE = "omega = 1.0\nkappa = 1.0\nbeta_s = 0.0\ni0 = 5e306\nbeta = 10.0\n"

#: (lambda_hat, omega_hat, T) = (2, 3, 5) at --tmax 5: the rate's zeros fall
#: on the quarter-period grid of both cosines
COMMENSURATE = (
    "omega = 3.0\n"
    "kappa = 1.0\n"
    "beta_s = 1.0\n"
    f"i0 = {8.0 / math.pi!r}\n"
    "beta = 1.0\n"
)

#: (lambda_hat, omega_hat, T) ~ (2.73, 1.44, 3.4) at --tmax 3.4: the printed
#: interior rate at the first grid angle beats both branches, and as-printed
#: mode still reports the larger branch, the omega one
INTERIOR = (
    "omega = 1.44\n"
    "kappa = 1.0\n"
    "beta_s = 1.0\n"
    f"i0 = {2.0 * 2.73**2 / math.pi!r}\n"
    "beta = 1.0\n"
)

STRONG = (
    "omega = 2.0\n"
    "kappa = 1.0\n"
    "beta_s = 1.0\n"
    f"i0 = {2.0 / math.pi!r}\n"
    "beta = 1.0\n"
)


#: strong coupling: at --n 8 --seed 5 trajectory 2 of 8 diverges at step 31
DIVERGENT = (
    "omega = 2.0\n"
    "kappa = 12.0\n"
    "beta_s = 1.0\n"
    "i0 = 2.0\n"
    "beta = 1.0\n"
)


@pytest.fixture
def config(tmp_path):
    def write(text, name="params.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_derive_prints_constants(config, capsys):
    assert main(["derive", "--config", config(REFERENCE)]) == 0
    out = capsys.readouterr().out
    assert "gamma = 1" in out
    assert "lambda = 1" in out
    assert "A = 0.5" in out
    assert "B = -0.5" in out
    assert "oscillatory = true" in out


def test_derive_undefined_ratio(config, capsys):
    cfg = config("omega=1\nkappa=1\nbeta_s=0\ni0=0\nbeta=2\n")
    assert main(["derive", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "B = undefined" in out
    assert "oscillatory = false" in out


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["derive", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_missing_key_exits_2(config, capsys):
    cfg = config("kappa=1\nbeta_s=0\ni0=0\nbeta=1\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "omega" in capsys.readouterr().err


def test_invalid_value_exits_2(config, capsys):
    cfg = config("omega=1\nkappa=1\nbeta_s=0\ni0=-1\nbeta=1\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "i0" in capsys.readouterr().err


def test_malformed_line_exits_2_with_lineno(config, capsys):
    cfg = config("omega=1\nkappa | 1\n")
    assert main(["derive", "--config", cfg]) == 2
    assert ":2" in capsys.readouterr().err


def test_evolve_writes_csv(config, tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = main(
        ["evolve", "--config", config(REFERENCE), "--tmax", "4", "--steps", "16",
         "--w0", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,m,w,purity"
    assert len(lines) == 18


def test_distance_writes_csv(config, tmp_path):
    out = tmp_path / "dist.csv"
    code = main(
        ["distance", "--config", config(REFERENCE), "--theta", "0.5",
         "--tmax", "3", "--steps", "10", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,distance"
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(1.0)



@pytest.mark.parametrize("command", ["evolve", "distance"])
@pytest.mark.parametrize("grid", [
    ["--steps", "-1"],
    ["--steps", "-2"],
    ["--steps", str(stochastic.MAX_FIELD_SAMPLES)],
    ["--steps", "100000000000"],
    ["--tmax", "-4"],
    ["--tmax", "nan"],
    ["--tmax", "inf"],
], ids=lambda grid: f"{grid[0]}={grid[1]}")
def test_bad_time_grid_exits_2(config, tmp_path, capsys, command, grid):
    out = tmp_path / "out.csv"
    argv = [command, "--config", config(REFERENCE), "--tmax", "4", *grid, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"invalid input: {grid[0]} {grid[1]}" in err
    assert not out.exists()


def test_unwritable_out_exits_2_with_one_i_o_error_line(config, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["evolve", "--config", config(REFERENCE), "--tmax", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:")
    assert [p.name for p in tmp_path.iterdir()] == ["params.cfg"]  # no file, no directory


@pytest.mark.parametrize("command", ["evolve", "distance"])
def test_single_time_grid_is_accepted(config, tmp_path, command):
    out = tmp_path / "out.csv"
    assert main([command, "--config", config(REFERENCE), "--tmax", "0", "--steps", "0",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2

def test_nonmark_reports_measure(config, tmp_path, capsys):
    out = tmp_path / "nonmark.json"
    code = main(
        ["nonmark", "--config", config(REFERENCE), "--tmax", "5",
         "--theta-grid", "9", "--literal-eq-nt", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "n_value" in text and "winning_branch" in text
    payload = json.loads(out.read_text())
    assert payload["lambda_hat"] == pytest.approx(1.0)
    assert payload["omega_hat"] == pytest.approx(2.0)
    assert payload["T"] == pytest.approx(5.0)
    assert payload["literal_pointwise_max"] >= payload["n_value"] - 1e-8
    assert payload["winning_branch"] in ("omega", "lambda")


@pytest.mark.parametrize("tmax, extra", [("0", []), ("5", []), ("3.4", ["--literal-eq-nt"])])
def test_nonmark_json_is_the_json_modules_text(config, tmp_path, tmax, extra):
    # the --out text is json.dumps(payload, indent=2) plus a newline, with no
    # intervals, without the literal key and with it
    out = tmp_path / "n.json"
    assert main(["nonmark", "--config", config(INTERIOR), "--tmax", tmax, *extra,
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert ("literal_pointwise_max" in text) == bool(extra)
    assert ('"intervals": []' in text) == (tmax == "0")


#: SHA-256 of nonmark's --out JSON and stdout with --literal-eq-nt, computed
#: with blp's own Chandrupatla kernel refining the sign changes (its roots
#: equal scipy's find_root bit for bit): the commensurate config, the
#: reference config at --tmax 20, and the interior config above
NONMARK_SHA256 = {
    ("commensurate", "derived"): (
        "1bf8b25a28224a2dd9a61fbbdb89744da4d35e8b8062125fc2f88057efa97aac",
        "95e9245ec124bb35a65eb9030e95f216e4875bbc4c2099be0da05f475b8f90ba",
    ),
    ("commensurate", "as-printed"): (
        "8aa9c5e3f163946f8c62707db716f23df068bc6b9057e61386a18c21bde3d717",
        "d2a1f7ec47b2765d7e5db049ab74c216f6e2cb91e3263f66b9ac71ca0298054d",
    ),
    ("tmax-20", "derived"): (
        "54e13fe40d58cb0fc28c3e49e4d71513839b6e1f503ce40b56f7689198bb47db",
        "f49d2b470e8a19d39ce7cc0a78801b88a7d7e6822bd088270cca1b828707695c",
    ),
    ("tmax-20", "as-printed"): (
        "ecb5501ed98208787006a6e66dfd87f4a5c71bb62d2c51f481f3320ee2fa3a67",
        "aeeac97bc7bd08e4f95f6fcc87cf2e583c2c9fe9adb660385b614bd6f8410fb0",
    ),
    ("interior", "derived"): (
        "6192c276714245b0977fbd01b1117015bcb1993e0e573cd7414619fcefd98c00",
        "044769d7a674e9e3787300c3218040d321f3a5a2c36fee54830ec25f2ff684c4",
    ),
    ("interior", "as-printed"): (
        "07e3bf82bef836394f833e16252ddeb2aa6c00b5ea6732af81a7cc8427451a29",
        "f1b2ed8d37b8e4a0a9d214c0b7914106f01c853c78ec0fa0039527b3e8d05848",
    ),
}
NONMARK_RUNS = {"commensurate": (COMMENSURATE, "5"), "tmax-20": (REFERENCE, "20"),
                "interior": (INTERIOR, "3.4")}


@pytest.mark.parametrize("run, mode", sorted(NONMARK_SHA256))
def test_nonmark_output_bytes_pinned(config, tmp_path, monkeypatch, capsys, run, mode):
    text, tmax = NONMARK_RUNS[run]
    monkeypatch.chdir(tmp_path)
    assert main(["nonmark", "--config", config(text), "--mode", mode, "--tmax", tmax,
                 "--literal-eq-nt", "--out", "n.json"]) == 0
    got = (Path("n.json").read_bytes(), capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == NONMARK_SHA256[run, mode]


#: SHA-256 of the closed-form CSVs (evolve with m0 != 0 and beta != beta_s, so the
#: modes differ; distance at theta 0.5) and of nonmark's stdout without
#: --literal-eq-nt; a change of line ends or number format moves them
TEXT_SHA256 = {
    ("evolve", "derived"): "9c9167111a609301cb62d8ef8bcca2ddef097a410fe4f9363b69610af498f5c3",
    ("evolve", "as-printed"): "13f0cb683047deed5a542aa9e7b09e8d9018ebb55cde6449b537c793cb0630b8",
    ("distance", "derived"): "226c708fcae9af2982d4016ce6e9b868ec144f38adffd2548ee5b7504c30b7d8",
    ("distance", "as-printed"): "a72341e4d59429a6fc2c555098363a4f2ffebc8d3cf6888bb7666c35944aff90",
    ("nonmark", "derived"): "d65cbc8a3c70c4537597b17310c94848420e173a1ac75ef55bb520446401fa3f",
    ("nonmark", "as-printed"): "869e02ce9282dfc82d2c43b071ff0e52b892eff732d4ecb9d0b9e12ac4e3a47a",
}
TEXT_RUNS = {
    "evolve": (WEAK, ["--m0", "0.6", "--w0", "-0.8", "--tmax", "6", "--steps", "300",
                      "--out", "out.csv"]),
    "distance": (WEAK, ["--theta", "0.5", "--tmax", "6", "--steps", "300", "--out", "out.csv"]),
    "nonmark": (REFERENCE, ["--tmax", "20"]),
}


@pytest.mark.parametrize("command, mode", sorted(TEXT_SHA256))
def test_closed_form_text_bytes_pinned(config, tmp_path, monkeypatch, capsys, command, mode):
    text, argv = TEXT_RUNS[command]
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", config(text), "--mode", mode, *argv]) == 0
    got = (capsys.readouterr().out.encode() if command == "nonmark"
           else Path("out.csv").read_bytes())
    assert hashlib.sha256(got).hexdigest() == TEXT_SHA256[command, mode]


#: SHA-256 of the stdout of derive (the reference config; an overdamped one;
#: beta_s = i0 = 0, which prints B = undefined), of a sweep and of a small mc-verify
STDOUT_SHA256 = {
    "derive-reference": "39f1b8d7fa0b014b090ee90e51d69fc5d5b29b6c21c536d0f12c53cad5149b27",
    "derive-overdamped": "651bc95ab9c2b7a2aa3aa6eb35060078b593976a5109af3a408538d4d9ef753b",
    "derive-undefined-ratio": "b6c6e6e6607b7d19a776b450fac92d5861acf765ef3c206fd559796911bc7d4c",
    "sweep": "5347237bad1218b6a16381124a850228c37eb7ae54bed5ff6651f1ae3cbb4626",
    "mc-verify": "40dd38bab85887272ae7f4339c4c0033f41c817464af5e69ac90662d5599c8df",
}
#: (config text or None, argv); a config goes in as --config after the command
STDOUT_RUNS = {
    "derive-reference": (REFERENCE, ["derive"]),
    "derive-overdamped": ("omega = 3.0\nkappa = 1.0\nbeta_s = 0.2\ni0 = 0.05\nbeta = 1.8\n",
                          ["derive"]),
    "derive-undefined-ratio": ("omega=1\nkappa=1\nbeta_s=0\ni0=0\nbeta=2\n", ["derive"]),
    "sweep": (None, ["sweep", "--lambda", "0:5:9", "--omega", "0:5:7", "--tmax", "1:5:3",
                     "--out", "s.csv"]),
    "mc-verify": (WEAK, ["mc-verify", "--n", "40", "--seed", str(2**40 + 7), "--m0", "0.3",
                         "--w0", "0.5", "--horizon", "2", "--out", "r.json"]),
}


@pytest.mark.parametrize("run", sorted(STDOUT_SHA256))
def test_stdout_bytes_pinned(config, tmp_path, monkeypatch, capsys, run):
    text, argv = STDOUT_RUNS[run]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        argv = [argv[0], "--config", config(text), *argv[1:]]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[run]


def test_nonmark_single_angle_grid_exits_2(config, tmp_path, capsys):
    out = tmp_path / "n.json"
    assert main(["nonmark", "--config", config(REFERENCE), "--tmax", "5", "--theta-grid", "1",
                 "--out", str(out)]) == 2
    assert "theta_grid_size must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tmax, message", [("-1", "t_max must be nonnegative"),
                                           ("-inf", "t_max must be finite"),
                                           ("nan", "t_max must be finite")])
def test_nonmark_bad_horizon_exits_2(config, tmp_path, capsys, tmax, message):
    # the horizon is checked once, by DimensionlessConfig, after scaling by gamma
    out = tmp_path / "n.json"
    assert main(["nonmark", "--config", config(REFERENCE), f"--tmax={tmax}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
def test_nonmark_horizon_over_the_period_cap_exits_2_before_any_overflow(config, tmp_path,
                                                                         capsys, mode):
    # the quarter cap is checked before any branch value is computed, so no numpy
    # RuntimeWarning (an error in this suite) comes before the one exit-2 line
    out = tmp_path / "n.json"
    assert main(["nonmark", "--config", config(REFERENCE), "--mode", mode, "--tmax", "1e308",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"quarter periods, over the cap of {blp.MAX_QUARTER_PERIODS}" in captured.err
    assert not out.exists()


def test_nonmark_long_horizon_sign_tests_do_not_overflow(config, capsys):
    # a long horizon end to end: the branch closed forms and the pointwise-max
    # locator run without a warning (the locator's own overflow test, on the
    # printed numerator, is in test_blp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["nonmark", "--config", config(REFERENCE), "--mode", "as-printed",
                     "--tmax", "709", "--literal-eq-nt"]) == 0
    assert "n_value = 451" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state(config, tmp_path, monkeypatch, capsys):
    # one process runs a sequence of commands on the shared parser; each must
    # match the same command run on a freshly built parser
    cfg, spec = config(REFERENCE), config(SPECTRUM, "s.cfg")
    commands = [
        ["nonmark", "--config", cfg, "--tmax", "5", "--theta-grid", "9", "--literal-eq-nt",
         "--out", "A.json"],
        ["nonmark", "--config", cfg, "--tmax", "5", "--theta-grid", "9"],
        ["nonmark", "--config", cfg, "--tmax", "5", "--theta-grid", "nine"],
        ["sweep", "--lambda", "0:2:3", "--omega", "0.5:1.5:2", "--tmax", "1:5:2",
         "--out", "s.csv"],
        ["spectrum", "--config", spec, "--n", "4", "--duration", "30", "--out", "p.csv"],
    ]

    def run(fresh):
        where = tmp_path / ("fresh" if fresh else "shared")
        where.mkdir()
        monkeypatch.chdir(where)
        seen = []
        for argv in commands:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen, {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    build_parser.cache_clear()
    shared = run(fresh=False)
    assert build_parser.cache_info()[:2] == (len(commands) - 1, 1)  # hits, misses
    assert shared == run(fresh=True)
    seen, files = shared
    assert [code for code, _, _ in seen] == [0, 0, 2, 0, 0]
    assert sorted(files) == ["A.json", "p.csv", "s.csv"]
    assert "literal_pointwise_max" in seen[0][1]
    assert "literal_pointwise_max" not in seen[1][1] and "wrote" not in seen[1][1]
    args = build_parser().parse_args(commands[1])
    assert args.out is None and not args.literal_eq_nt


def test_sweep_deterministic_output(config, tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = ["sweep", "--lambda", "0:2:3", "--omega", "0.5:1.5:2",
            "--tmax", "1:5:2", "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "lambda,omega,T,n_omega_branch,n_lambda_branch,n_max,winning_branch"
    assert len(lines) == 1 + 3 * 2 * 2
    # row order: lambda outer, omega middle, T inner
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == second[0] == "0"
    assert first[1] == second[1] == "0.5"
    assert float(first[2]) == 1.0 and float(second[2]) == 5.0


def test_sweep_json_variant(config, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--lambda", "1:1:1", "--omega", "2:2:1", "--tmax", "4:4:1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert payload[0]["winning_branch"] in ("omega", "lambda")
    assert isinstance(payload[0]["intervals_omega"], list)


#: SHA-256 of sweep outputs, written cell by cell through csv.writer and
#: json.dumps(indent=2): a grid with rises in both branches, and one with a
#: single-point lambda axis, omega = 0 and T = 0
SWEEP_SHA256 = {
    ("rises", "derived", "csv"): "9da401af55f6474ef9a704f78a5f2c3d5a40737abd334d3f76d6126c60940411",
    ("rises", "derived", "json"): "a8400c11bc7fc6eb0f9345eeec7eda47f418ded52231ef99bc8d80a16b6bbc93",
    ("rises", "as-printed", "csv"): "88f00fdc8024e26e2580a20c5363c83616441c11a01ac287275c7aae97f1b42f",
    ("rises", "as-printed", "json"): "d7c7794727b076f6829e0432ffa8c5ce99b0006715ecbc906a904b73726c6943",
    ("edges", "derived", "csv"): "e07cc278e2ae1c4510acc988861041facdb8a30f401a0508278796064b692676",
    ("edges", "derived", "json"): "206eef14b28b96be57ba84916c75e04eee5e812c3fc26fd24f12ae415442954b",
    ("edges", "as-printed", "csv"): "46ff456a2987e1f4feed83598055e10bbb6b50acb48037fd4c6c8e59e0b710a1",
    ("edges", "as-printed", "json"): "cfc763e98680245f919474af802dfe2e89670850c2061a3e8c47f56c0a9285bf",
}
SWEEP_GRIDS = {
    "rises": ["--lambda", "0:5:9", "--omega", "0:5:7", "--tmax", "1:5:3"],
    "edges": ["--lambda", "2.5:2.5:1", "--omega", "0:7:8", "--tmax", "0:12:5"],
}


@pytest.mark.parametrize("grid, mode, fmt", sorted(SWEEP_SHA256))
def test_sweep_output_bytes_pinned(tmp_path, grid, mode, fmt):
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--mode", mode, *SWEEP_GRIDS[grid], "--format", fmt,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[grid, mode, fmt]


def test_sweep_bad_range_exits_2(config, capsys):
    # two fields, a non-number, MIN > MAX, non-finite ends and no points
    for bad in ("0:2", "a:1:2", "1:0:2", "nan:1:2", "0:inf:2", "0:1:0"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--lambda", bad, "--omega", "1:1:1", "--tmax", "1:1:1",
                  "--out", "x.csv"])
        assert exc.value.code == 2, bad


@pytest.mark.parametrize("axes", [["--lambda=-1:2:4", "--omega", "0:2:3"],
                                  ["--lambda", "0:2:3", "--omega=-3:4:8"]],
                         ids=["lambda", "omega"])
def test_sweep_negative_frequency_exits_2(tmp_path, capsys, axes):
    # both frequencies are magnitudes; the measure is even in each of them
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *axes, "--tmax", "1:5:2", "--out", str(out)]) == 2
    assert "must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_mc_verify_zero_field_passes(config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["mc-verify", "--config", config(ZERO_FIELD), "--n", "2", "--dt", "0.002",
         "--horizon", "3", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["n_realizations"] == 2
    assert len(payload["seeds"]) == 2


def test_mc_verify_weak_coupling_passes(config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["mc-verify", "--config", config(WEAK), "--n", "400", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_mc_verify_guard_refuses_strong_coupling(config, tmp_path, capsys):
    code = main(
        ["mc-verify", "--config", config(STRONG), "--n", "4",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "weak-coupling" in capsys.readouterr().err


def test_mc_verify_force_overrides_guard(config, tmp_path):
    code = main(
        ["mc-verify", "--config", config(STRONG), "--n", "4", "--force",
         "--horizon", "0.5", "--out", str(tmp_path / "r.json")]
    )
    assert code in (0, 4)  # runs; band outcome is not guaranteed out here


def test_mc_verify_band_failure_exits_4_and_keeps_its_report(config, tmp_path, capsys):
    cfg = config(f"omega = 5.0\nkappa = 1.0\nbeta_s = 0.2\ni0 = {4.0 / math.pi!r}\nbeta = 1.0\n")
    out = tmp_path / "r.json"
    assert main(["mc-verify", "--config", cfg, "--force", "--n", "100", "--seed", "3",
                 "--m0", "0.6", "--w0", "0.8", "--out", str(out)]) == 4
    assert "acceptance bands: FAIL" in capsys.readouterr().err
    assert json.loads(out.read_text())["n_realizations"] == 100


def test_mc_verify_reports_are_byte_identical(config, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["mc-verify", "--config", config(WEAK), "--n", "50", "--seed", "11",
            "--horizon", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mc_verify_divergence_exits_3_with_seed_and_time(config, tmp_path, capsys):
    # the divergence is raised mid-run, between yielded RK4 rows
    out = tmp_path / "r.json"
    assert main(["mc-verify", "--config", config(DIVERGENT), "--n", "8", "--seed", "5",
                 "--force", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "divergent trajectory: trajectory diverged at t=1.55 (|state| > 1000, "
        "seed=4160164373342109173)\n"
    )
    assert not out.exists()


def test_mc_verify_overflowing_trajectory_prints_only_its_exit_3_line(config, tmp_path):
    # kappa**2 is finite, so the config is accepted, but the RK4 steps overflow to inf and
    # NaN: the divergence test reports that as its one line, with no numpy warning before it
    cfg = config(WEAK.replace("kappa = 1.0", "kappa = 1e154"))
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dipolefield.cli", "mc-verify", "--config", cfg, "--force",
         "--n", "4", "--out", str(tmp_path / "r.json")], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 3
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("divergent trajectory: "), result.stderr


#: SHA-256 of mc-verify reports, computed with one SeedSequence and one
#: default_rng per trajectory: criterion 09's config, and a small run whose
#: master seed of 2**40 + 7 takes two entropy words
MC_REPORT_SHA256 = {
    "criterion-09": "9535269e8fb73b97059d9930c6387185acd8c10a852260530bcf5a00a31b95a7",
    "wide-seed": "f6fec4b2d3a682ef0214d71833f84842e2f75bf698474a9bb0fec891b4703ded",
}
MC_REPORT_ARGS = {
    "criterion-09": ["--n", "10000", "--seed", "99"],
    "wide-seed": ["--n", "40", "--seed", str(2**40 + 7), "--m0", "0.3", "--w0", "0.5",
                  "--horizon", "2"],
}


@pytest.mark.parametrize("run", sorted(MC_REPORT_SHA256))
def test_mc_verify_report_bytes_pinned(config, tmp_path, run):
    out = tmp_path / "report.json"
    assert main(["mc-verify", "--config", config(WEAK), *MC_REPORT_ARGS[run],
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MC_REPORT_SHA256[run]


def test_spectrum_command(config, tmp_path, capsys):
    out = tmp_path / "spec.csv"
    dump = tmp_path / "field.csv"
    code = main(
        ["spectrum", "--config", config(SPECTRUM), "--n", "20", "--seed", "2",
         "--duration", "60", "--out", str(out), "--dump-field", str(dump)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "peak_omega" in text
    assert out.read_text().splitlines()[0] == "omega,power"
    assert dump.read_text().splitlines()[0] == "t,E"
    # pinned bytes, produced by sampling one realization at a time
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "de88d80209c64b085dc9f7830b7288dc012717df1eeadf968a3c9b0c7663293b"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "da2608ffc8acf04962658b5f10d2c750b7779988fbb57b7080d7384cb1d341a0"
    )
    assert text.splitlines()[2:] == [
        "peak_omega = 10.1198 (target 10)",
        "hwhm = 1.03657 (target 1)",
        "peak_height = 3.09005 (implied i0 = 0.983592)",
    ]


#: SHA-256 of the --out and --dump-field files of ``spectrum --n 45 --seed 7``
#: at the default record length (6367 samples, several synthesis blocks),
#: computed with every realization held in memory before the periodogram
SPECTRUM_45_SHA256 = (
    "715a7e1519db9409402a2379ac1b15f841a6c32bb0cf4217dfa22c439ef04880",
    "ceb609e932382336c4928b641d80deb62ac9d72048a36365f6a0b327b30e69c2",
)


def test_spectrum_bytes_do_not_depend_on_block_size(config, tmp_path, capsys, monkeypatch):
    cfg = config(SPECTRUM)
    record = 2 * 8 * 6367  # bytes of normals per realization
    # the default budget, then blocks of 1 and of 3 records (a partial last block)
    for budget in (stochastic.FIELD_BLOCK_BYTES, record, 3 * record):
        monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", budget)
        where = tmp_path / str(budget)
        where.mkdir()
        monkeypatch.chdir(where)
        assert main(["spectrum", "--config", cfg, "--n", "45", "--seed", "7",
                     "--out", "p.csv", "--dump-field", "f.csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "wrote f.csv",
            "wrote p.csv",
            "peak_omega = 10.0087 (target 10)",
            "hwhm = 1.03879 (target 1)",
            "peak_height = 3.04752 (implied i0 = 0.970057)",
        ]
        digests = tuple(hashlib.sha256((where / f).read_bytes()).hexdigest()
                        for f in ("p.csv", "f.csv"))
        assert digests == SPECTRUM_45_SHA256


def test_spectrum_zero_field_has_no_fit(config, tmp_path, capsys):
    out, dump = tmp_path / "p.csv", tmp_path / "f.csv"
    assert main(["spectrum", "--config", config(ZERO_FIELD), "--n", "3", "--duration", "20",
                 "--out", str(out), "--dump-field", str(dump)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "no fit: zero spectrum; no peak to fit"
    rows = out.read_text().splitlines()
    assert rows[0] == "omega,power"
    assert all(float(row.split(",")[1]) == 0.0 for row in rows[1:])
    assert dump.read_text().splitlines()[0] == "t,E"
    # pinned bytes, produced when the spectrum's fit object carried the no-fit message
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bc49cb1097bfc01f881ebceeea24a670c4b7fad6ec85a2b0c48b00316ef977be"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "05e16b2028cc8a9c98d266d26afedc26979e4be3957aa8e7a306814a3324ec3d"
    )


@pytest.mark.parametrize("argv", [["spectrum"], ["mc-verify", "--force"]])
def test_non_finite_field_variance_exits_2_without_warnings(config, tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", config(HUGE_VARIANCE), "--n", "4",
                     "--out", str(out)]) == 2
    assert "invalid input: field variance pi*beta*i0 = pi*10*1e+308 is not finite" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["spectrum"], ["mc-verify", "--force"]])
def test_overflowing_field_variance_exits_2_without_warnings(config, tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", config(OVERFLOWING_VARIANCE), "--n", "4",
                     "--out", str(out)]) == 2
    assert (f"invalid input: field variance pi*beta*i0 = 1.5708e+308 exceeds "
            f"{stochastic.MAX_FIELD_VARIANCE:g}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["kappa", "beta"])
@pytest.mark.parametrize("argv", [
    ["derive"],
    ["evolve", "--tmax", "4"],
    ["distance", "--tmax", "4"],
    ["nonmark", "--tmax", "4"],
    ["mc-verify", "--n", "4", "--force"],
], ids=lambda argv: argv[0])
def test_overflowing_squared_parameter_exits_2_without_a_traceback(config, tmp_path, capsys,
                                                                  argv, key):
    # kappa**2 or (beta - beta_s)**2 overflows a Python float, which raises
    text = WEAK.replace(f"{key} = 1.0", f"{key} = 1e160")
    assert text != WEAK
    out = tmp_path / "out"
    extra = [] if argv[0] in ("derive", "nonmark") else ["--out", str(out)]
    assert main([*argv, "--config", config(text), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid input: ")
    assert "overflows the derived constants" in err[0] and "Traceback" not in captured.err
    assert not out.exists()


def test_spectrum_fit_failure_exits_3(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stochastic, "FIT_MAX_ITER", 0)
    out = tmp_path / "p.csv"
    assert main(["spectrum", "--config", config(SPECTRUM), "--n", "4", "--duration", "30",
                 "--out", str(out)]) == 3
    assert "spectrum fit failed: Lorentzian fit did not converge in 0 iterations" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "0"],
    ["spectrum", "--n", "1"],
    ["spectrum", "--duration", "inf"],
    ["spectrum", "--duration", "nan"],
    ["spectrum", "--duration", "-5"],
    ["spectrum", "--duration", "0"],
    ["spectrum", "--duration", "0.01"],
    ["spectrum", "--duration", "0.5"],
    ["spectrum", "--duration", "1e12"],
    ["mc-verify", "--dt", "0"],
    ["mc-verify", "--dt", "-0.01"],
    ["mc-verify", "--dt", "nan"],
    ["mc-verify", "--horizon", "inf"],
    ["mc-verify", "--horizon", "-1"],
    ["mc-verify", "--horizon", "1e9"],
    ["mc-verify", "--seed", "-1"],
    ["spectrum", "--seed", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_invalid_step_count_or_length_exits_2(config, tmp_path, capsys, argv):
    dump = tmp_path / "field.csv"
    out = tmp_path / "out"
    if argv[0] == "spectrum":
        extra = ["--config", config(SPECTRUM), "--dump-field", str(dump), "--out", str(out)]
    else:
        extra = ["--config", config(WEAK), "--n", "4", "--out", str(out)]
    assert main(argv + extra) == 2
    assert "invalid input" in capsys.readouterr().err
    assert not dump.exists() and not out.exists()


@pytest.mark.parametrize("command", ["evolve", "mc-verify"])
@pytest.mark.parametrize("flag", ["--m0", "--w0"])
def test_non_finite_initial_condition_exits_2(config, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    extra = ["--tmax", "4"] if command == "evolve" else ["--n", "4"]
    assert main([command, "--config", config(WEAK), flag, "nan", *extra,
                  "--out", str(out)]) == 2
    assert "invalid input: initial condition" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["derive", "mc-verify", "spectrum"])
def test_mode_is_refused_where_no_formula_reads_it(config, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config(WEAK), "--mode", "as-printed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode as-printed" in capsys.readouterr().err


def test_commands_do_not_import_scipy_signal(config, tmp_path):
    # scipy.signal costs about 0.6 s of import and 23 MB of memory per process
    script = "\n".join([
        "import sys",
        "from dipolefield.cli import main",
        f"assert main(['spectrum', '--config', {config(SPECTRUM, 's.cfg')!r}, '--n', '4',"
        " '--duration', '30']) == 0",
        f"assert main(['mc-verify', '--config', {config(ZERO_FIELD, 'z.cfg')!r}, '--n', '4',"
        " '--dt', '0.01', '--horizon', '2', '--out', 'r.json']) == 0",
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'",
    ])
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def _main_under_memory_limit(tmp_path, argv, allowance=2**30):
    """Run ``main(argv)`` in a subprocess whose address space is capped at ``allowance``
    bytes (1 GiB by default) above what it holds after import, so an unbounded
    allocation fails in numpy rather than exhausting memory."""
    script = "\n".join([
        "import resource, sys",
        "from dipolefield.cli import main",
        "held = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()",
        f"resource.setrlimit(resource.RLIMIT_AS, (held + {allowance}, held + {allowance}))",
        f"sys.exit(main({argv!r}))",
    ])
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


@pytest.mark.parametrize("axes", [
    ["--lambda", "0:1e12:2", "--omega", "1:1:1", "--tmax", "1:1:1"],
    ["--lambda", "1:1:1", "--omega", "1e300:1e300:1", "--tmax", "10:10:1"],
], ids=["lambda-1e12", "omega-1e300"])
def test_sweep_beyond_the_period_cap_exits_2_under_a_memory_limit(tmp_path, axes):
    result = _main_under_memory_limit(tmp_path, ["sweep", *axes, "--out", "sweep.csv"])
    assert result.returncode == 2, result.stderr
    assert f"over the cap of {blp.MAX_QUARTER_PERIODS}" in result.stderr
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("axes", [
    ["--lambda", "0:1:1000", "--omega", "0:1:1000", "--tmax", "1:5:10"],
    ["--lambda", "0:1:1000000000", "--omega", "1:1:1", "--tmax", "1:1:1"],
], ids=["grid-1e7", "axis-1e9"])
def test_sweep_beyond_the_cell_cap_exits_2_under_a_memory_limit(tmp_path, axes):
    # 10**7 cells would need about 13 GB as JSON, and an axis of 10**9 values
    # 8 GB before any cell: both are refused before any axis is built
    result = _main_under_memory_limit(tmp_path, ["sweep", *axes, "--format", "json",
                                                 "--out", "sweep.json"])
    assert result.returncode == 2, result.stderr
    assert f"over the cap of {blp.MAX_SWEEP_CELLS}" in result.stderr
    assert not (tmp_path / "sweep.json").exists()


def test_json_sweep_beyond_the_interval_cap_exits_2_under_a_memory_limit(tmp_path):
    # 32 cells at omega 1600 and T 1000 list 16307648 rise intervals, about 1.1 GB
    # of JSON; unchecked, the writer raised MemoryError under this limit (exit 1)
    result = _main_under_memory_limit(tmp_path, [
        "sweep", "--lambda", "1:1:1", "--omega", "1600:1600:1", "--tmax", "1000:1000:32",
        "--format", "json", "--out", "sweep.json"])
    assert result.returncode == 2, result.stderr
    assert "16307648 rise intervals" in result.stderr
    assert f"over the cap of {blp.MAX_SWEEP_INTERVALS} (blp.MAX_SWEEP_INTERVALS)" in result.stderr
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_at_the_cell_cap_writes_its_json_under_a_memory_limit(tmp_path):
    # 2**18 cells are 167 MB of JSON; the writer holds one chunk of cells at a
    # time, so 64 MiB above the imported program is enough (a writer that
    # joins the whole file first peaks near 376 MB and raises MemoryError)
    result = _main_under_memory_limit(tmp_path, [
        "sweep", "--mode", "as-printed", "--lambda", "0:5:64", "--omega", "0:5:64",
        "--tmax", "1:5:64", "--format", "json", "--out", "sweep.json"], allowance=2**26)
    assert result.returncode == 0, result.stderr
    out = tmp_path / "sweep.json"
    digest = hashlib.sha256()
    with out.open("rb") as f:  # 1 MiB reads; hashlib.file_digest needs Python 3.11
        for block in iter(lambda: f.read(2**20), b""):
            digest.update(block)
    out.unlink()
    assert digest.hexdigest() == "0df93ca3213f7eeb7feb4bc2b500cb47f65a3949d00fbfe4567d533f90664c78"


@pytest.mark.parametrize("mode, tmax, extra", [("derived", "1e5", []),
                                               ("as-printed", "5e5", ["--literal-eq-nt"]),
                                               ("derived", "5", ["--theta-grid", "200000000"]),
                                               ("derived", "0", ["--theta-grid", "200000000"])],
                         ids=["derived-1e5", "as-printed-5e5", "derived-theta-grid-2e8",
                              "derived-theta-grid-2e8-at-T-0"])
def test_nonmark_beyond_the_scan_cap_exits_2_under_a_memory_limit(config, tmp_path, mode, tmax,
                                                                  extra):
    # the positivity scan samples owners x gaps x 9 values: about 1.3e5 gaps
    # for 63 angles (the derived theta scan) or 6.4e5 gaps for one owner (the
    # pointwise-max crossings; as-printed mode scans no angles) would need
    # gigabytes, so the scan must refuse first
    result = _main_under_memory_limit(tmp_path, [
        "nonmark", "--config", config(REFERENCE), "--mode", mode, "--tmax", tmax, *extra,
        "--out", "n.json"])
    assert result.returncode == 2, result.stderr
    assert f"over the cap of {blp.MAX_SCAN_SAMPLES}" in result.stderr
    assert not (tmp_path / "n.json").exists()


def test_as_printed_nonmark_accepts_any_theta_grid(config, tmp_path):
    # as-printed mode scores only its two endpoint angles and builds no grid
    out = tmp_path / "n.json"
    assert main(["nonmark", "--config", config(REFERENCE), "--mode", "as-printed",
                 "--tmax", "5", "--theta-grid", "200000000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["theta_star"] in (0.0, math.pi / 2)

def test_as_printed_nonmark_does_not_import_scipy_integrate(config, tmp_path):
    # as-printed nonmark reads its measure off the branch closed forms
    script = "\n".join([
        "import sys",
        "from dipolefield.cli import main",
        f"assert main(['nonmark', '--config', {config(REFERENCE)!r}, '--mode', 'as-printed',"
        " '--tmax', '5', '--theta-grid', '9', '--literal-eq-nt', '--out', 'n.json']) == 0",
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate was imported'",
    ])
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_commands_do_not_import_scipy(config, tmp_path):
    # importing scipy.optimize alone took 0.6 s per process; no command needs scipy
    ref, spec = config(REFERENCE, "r.cfg"), config(SPECTRUM, "s.cfg")
    runs = [
        ["derive", "--config", ref],
        ["evolve", "--config", ref, "--tmax", "2", "--out", "e.csv"],
        ["distance", "--config", ref, "--tmax", "2", "--out", "d.csv"],
        *(["nonmark", "--config", ref, "--mode", mode, "--tmax", "5", "--theta-grid", "9",
           "--literal-eq-nt", "--out", "n.json"] for mode in ("derived", "as-printed")),
        ["sweep", "--lambda", "0.5:2:3", "--omega", "0.5:2:3", "--tmax", "1:5:2", "--out", "s.csv"],
        ["mc-verify", "--config", config(ZERO_FIELD, "z.cfg"), "--n", "4", "--dt", "0.01",
         "--horizon", "2", "--out", "r.json"],
        ["spectrum", "--config", spec, "--n", "4", "--duration", "30", "--out", "p.csv"],
    ]
    script = "\n".join([
        "import sys",
        "from dipolefield.cli import main",
        f"for argv in {runs!r}:",
        "    assert main(argv) == 0, argv",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert not loaded, loaded[:5]",
    ])
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_only_the_stochastic_commands_import_the_stochastic_layer(config, tmp_path):
    # importing the cli and running every other command loads neither the
    # stochastic module nor the numpy submodules it uses (numpy.ma is what
    # np.unique loads); only a stochastic computation loads them
    ref = config(REFERENCE, "r.cfg")
    runs = [
        ["derive", "--config", ref],
        ["evolve", "--config", ref, "--tmax", "2", "--out", "e.csv"],
        ["distance", "--config", ref, "--tmax", "2", "--out", "d.csv"],
        *(["nonmark", "--config", ref, "--mode", mode, "--tmax", "5", "--theta-grid", "9",
           "--literal-eq-nt", "--out", "n.json"] for mode in ("derived", "as-printed")),
        *(["sweep", "--lambda", "0:2:3", "--omega", "0:2:3", "--tmax", "1:5:2", "--format", fmt,
           "--out", f"s.{fmt}"] for fmt in ("csv", "json")),
    ]
    script = "\n".join([
        "import sys",
        "lazy = ('dipolefield.stochastic', 'numpy.random', 'numpy.fft', 'numpy.ma')",
        "from dipolefield.cli import main",
        "assert not [m for m in lazy if m in sys.modules], 'loaded on import'",
        f"for argv in {runs!r}:",
        "    assert main(argv) == 0, argv",
        "    assert not [m for m in lazy if m in sys.modules], argv",
        "from dipolefield.model import SystemParams",
        "from dipolefield.stochastic import sample_periodogram",
        "sample_periodogram(SystemParams(5.0, 1.0, 0.2, 0.1, 1.0), 0.05, 16, [1, 2])",
        "assert all(m in sys.modules for m in lazy[:3])",
    ])
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
