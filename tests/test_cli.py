import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ebchannels.cli import main
from ebchannels.markov import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_channel(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _assert_one_error_line(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_identity_preset(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "identity")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["is_eb"] is False
    assert abs(data["verdict"]["margin"] - (-0.5)) < 1e-12
    assert data["seb_class"] == "not-eb"
    assert data["closed_form"]["method"] == "unital-closed-form"
    assert data["closed_form"]["agrees_with_numeric"] is True


def test_analyze_depolarizing_threshold_file(tmp_path, capsys):
    third = 1.0 / 3.0
    path = write_channel(
        tmp_path,
        "third.json",
        {
            "n": [0.0, 0.0, 0.0],
            "M": [[third, 0, 0], [0, third, 0], [0, 0, third]],
            "metadata": {"name": "threshold"},
        },
    )
    code, out, _ = run_cli(capsys, "analyze", "--channel", path)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["is_eb"] is True
    assert data["closed_form"]["method"] == "unital-closed-form"
    assert data["closed_form"]["is_eb"] is True
    assert data["closed_form"]["agrees_with_numeric"] is True


def test_analyze_seb_preset(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "seb-example")
    assert code == 0
    data = json.loads(out)
    assert data["seb_class"] == "seb-rank-deficient"


def test_analyze_malformed_json_names_problem(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": [0, 0, 0], "M": ')
    code, _, err = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 1
    assert "invalid JSON" in err


def test_analyze_rejects_extra_keys(tmp_path, capsys):
    path = write_channel(
        tmp_path,
        "extra.json",
        {"n": [0, 0, 0], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "spin": 7},
    )
    code, _, err = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 1
    assert "spin" in err


def test_analyze_rejects_bad_shapes(tmp_path, capsys):
    path = write_channel(
        tmp_path, "short.json", {"n": [0, 0], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    code, _, err = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 1
    assert '"n"' in err


def test_analyze_non_cp_exits_two(tmp_path, capsys):
    path = write_channel(
        tmp_path, "noncp.json", {"n": [0, 0, 0], "M": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
    )
    code, out, _ = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["cptp"]["is_cp"] is False
    assert abs(data["cptp"]["min_choi_eig"] - (-0.5)) < 1e-10


def test_markov_depolarization_csv(tmp_path, capsys):
    out_path = tmp_path / "depol.csv"
    code, out, _ = run_cli(
        capsys,
        "markov",
        "--family",
        "depolarization",
        "--T",
        "1",
        "--t-max",
        "3",
        "--steps",
        "301",
        "--output",
        str(out_path),
    )
    assert code == 0
    onset = float(out.split("onset:")[1].strip())
    assert abs(onset - math.log(3.0)) < 1e-8
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,lam1,lam2,lam3,margin,is_eb"
    assert len(lines) == 302
    # locale-independent floats with enough digits to round-trip
    row = lines[1].split(",")
    assert float(row[4]) < 0


def test_markov_decoherence_reports_no_onset(tmp_path, capsys):
    out_path = tmp_path / "deco.csv"
    code, out, _ = run_cli(
        capsys,
        "markov",
        "--family",
        "decoherence",
        "--T",
        "1",
        "--omega",
        "5",
        "--t-max",
        "50",
        "--steps",
        "51",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert "onset: none" in out


def test_markov_homogenization_json(tmp_path, capsys):
    out_path = tmp_path / "homog.json"
    code, out, _ = run_cli(
        capsys,
        "markov",
        "--family",
        "homogenization",
        "--T1",
        "1",
        "--T2",
        "1",
        "--w",
        "0.5",
        "--t-max",
        "5",
        "--steps",
        "21",
        "--output",
        str(out_path),
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["family"] == "homogenization"
    assert {"f1", "f2", "f", "cf_eb"} <= set(data["rows"][0])


def test_markov_bad_config(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "markov",
        "--family",
        "depolarization",
        "--T",
        "-1",
        "--t-max",
        "3",
        "--output",
        str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "positive" in err


def test_markov_not_cp_exits_two(tmp_path, capsys):
    out_path = tmp_path / "noncp.csv"
    code, out, err = run_cli(
        capsys, "markov", "--family", "homogenization", "--T1", "0.1", "--T2", "1",
        "--w", "0.5", "--t-max", "1", "--output", str(out_path),
    )
    assert code == 2
    assert out == ""
    _assert_one_error_line(err)
    assert "not CP" in err
    assert not out_path.exists()


def test_markov_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys,
        "markov",
        "--family",
        "depolarization",
        "--T",
        "1",
        "--t-max",
        "1",
        "--steps",
        "5",
        "--output",
        "/nonexistent-dir/scan.csv",
    )
    assert code == 3
    assert "cannot write" in err


def test_amend_local_deterministic_bytes(capsys):
    args = ("amend", "local", "--preset", "seb-example", "--layers", "3",
            "--trials", "50", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["amended"] is False
    assert data["base_is_eb"] is True
    assert data["seed"] == 7
    assert "PCG64" in data["prng"]
    assert len(data["best_unitaries"]) == 2


def test_amend_local_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "amend", "local", "--preset", "identity", "--layers", "2",
        "--trials", "10", "--seed", "1", "--output", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["base_is_eb"] is False
    assert abs(data["best_pt_min_eig"] - (-0.5)) < 1e-12


def test_amend_local_non_cp_exits_two(tmp_path, capsys):
    path = write_channel(
        tmp_path, "bad.json", {"n": [0, 0, 0], "M": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
    )
    code, _, err = run_cli(
        capsys, "amend", "local", "--channel", path, "--layers", "2",
        "--trials", "5", "--seed", "0",
    )
    assert code == 2
    assert "not CP" in err


def test_amend_global_example_reports_failure(capsys):
    code, out, err = run_cli(capsys, "amend", "global-example")
    assert code == 2
    data = json.loads(out)
    assert data["reproduced_ordering"] is None
    assert len(data["attempts"]) == 2
    assert all("error" in attempt for attempt in data["attempts"])
    assert "no basis ordering reproduced" in err
    # the bundled reference state rides along for inspection
    ref = np.array([[c[0] + 1j * c[1] for c in row] for row in data["reference_state"]])
    assert abs(np.trace(ref).real - 1.0) < 1e-15


def test_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "analyze", "--preset", "mystery")
    assert code == 1
    assert "unknown preset" in err


def test_bad_flags_exit_one(capsys):
    assert main(["markov", "--family", "nope", "--t-max", "1", "--output", "x"]) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "depolarizing:nan"],
        ["analyze", "--preset", "depolarizing:inf"],
        ["analyze", "--preset", "depolarizing:-inf"],
        ["analyze", "--channel", "{tmp}/overflow.json"],
        ["markov", "--family", "depolarization", "--t-max", "inf",
         "--output", "{tmp}/inf.csv"],
        ["markov", "--family", "decoherence", "--omega", "1e308", "--t-max", "10",
         "--output", "{tmp}/omega.csv"],
    ],
)
def test_non_finite_input_exits_one(argv, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text('{"n": [0, 0, 1e400], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    _assert_one_error_line(err)
    assert "finite" in err


@pytest.mark.parametrize("command", [["analyze"], ["amend", "local", "--seed", "1"]])
@pytest.mark.parametrize(
    "source",
    [
        ["--preset", "depolarizing:1e308"],
        ["--preset", "depolarizing:-1e308"],
        ["--channel", "{tmp}/huge.json"],
    ],
)
def test_choi_overflow_exits_one(command, source, tmp_path, capsys):
    # finite parameters whose Choi matrix overflows
    path = tmp_path / "huge.json"
    path.write_text('{"n": [1e308, 0, 0], "M": [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]}')
    argv = [*command, *(a.format(tmp=tmp_path) for a in source)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    _assert_one_error_line(err)
    assert "overflow the Choi matrix" in err


_VALID_CHANNEL = b'{"n": [0, 0, 0.1], "M": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.4]]}'
_NOT_UTF8 = b"\xff\xfe" + _VALID_CHANNEL
_TOO_DEEP = b'{"n": ' + b"[" * 10_000 + b"]" * 10_000 + b"}"  # beyond the recursion limit
_HUGE_INT = _VALID_CHANNEL.replace(b"0.1", b"1" + b"0" * 400)  # beyond the float range


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["analyze"], ["amend", "local", "--seed", "1"]])
@pytest.mark.parametrize(
    "content, message",
    [
        (_NOT_UTF8, "can't decode byte 0xff"),
        (_HUGE_INT, '"n"[2] must be finite'),
        (_TOO_DEEP, "maximum recursion depth"),
    ],
    ids=["not-utf8", "huge-int", "too-deep"],
)
def test_malformed_channel_file_exits_one(command, content, message, tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *command, "--channel", str(path))
    assert code == 1
    assert out == ""
    _assert_one_error_line(err)
    assert message in err


# argv fuzzing: every value argparse accepts goes through `main`, which
# must end in an exit code and at most one `error:` line on stderr
_NUMBERS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e308", "-1e308",
     "1" + "0" * 400, "-1" + "0" * 400, "0.3", "1", "2.5", "-1"]
) | st.floats().map(repr)
_INTS = st.sampled_from([10**400, -(10**400), 2**64]) | st.integers(-3, 2**40)
_OUTPUTS = st.sampled_from(["{tmp}/out", "{tmp}/missing/out"])
_CHANNEL_FILES = st.sampled_from(
    [
        _VALID_CHANNEL,
        _VALID_CHANNEL.replace(b"0.4", b"-1"),  # not CP
        _VALID_CHANNEL[:30],  # truncated
        _NOT_UTF8,
        _TOO_DEEP,
        _HUGE_INT,
    ]
)
_SOURCES = st.just(["--channel", "{tmp}/channel.json"]) | st.builds(
    lambda preset: ["--preset", preset],
    st.sampled_from(["identity", "seb-example", "mystery"])
    | _NUMBERS.map("depolarizing:{}".format),
)


def _flags(**strategies):
    # any subset of the flags, each as one `--flag=value` token, so that
    # values such as -inf are not read as flags
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda values: [f"--{flag.replace('_', '-')}={v}" for flag, v in values.items()]
    )


_ARGV = st.one_of(
    st.builds(lambda source: ["analyze", *source], _SOURCES),
    st.builds(
        lambda family, t_max, output, flags: [
            "markov", f"--family={family}", f"--t-max={t_max}", f"--output={output}",
            *flags,
        ],
        st.sampled_from(list(FAMILIES)),
        _NUMBERS,
        _OUTPUTS,
        _flags(T=_NUMBERS, T1=_NUMBERS, T2=_NUMBERS, w=_NUMBERS, omega=_NUMBERS,
               t_min=_NUMBERS, steps=st.integers(-2, 64),
               format=st.sampled_from(["csv", "json"])),
    ),
    st.builds(
        lambda source, seed, flags: ["amend", "local", *source, f"--seed={seed}", *flags],
        _SOURCES,
        _INTS,
        _flags(layers=st.integers(-1, 4), trials=st.integers(-2, 32), output=_OUTPUTS),
    ),
    st.just(["amend", "global-example"]),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV, channel=_CHANNEL_FILES)
def test_cli_fuzz_exits_with_a_code_and_at_most_one_error_line(
    argv, channel, tmp_path, capsys
):
    (tmp_path / "channel.json").write_bytes(channel)
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1
    assert err == "" or err.startswith("error: ")


def test_amend_local_negative_seed_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "amend", "local", "--preset", "seb-example", "--seed", "-3"
    )
    assert code == 1
    _assert_one_error_line(err)
    assert "seed must be nonnegative" in err


def test_threads_option_is_gone(capsys):
    assert main(["--threads", "8", "analyze", "--preset", "identity"]) == 1
    capsys.readouterr()


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


_PIPED_COMMANDS = [
    ["analyze", "--preset", "identity"],
    ["amend", "local", "--preset", "seb-example", "--layers", "2", "--trials", "10",
     "--seed", "1"],
]


@pytest.mark.parametrize("argv", _PIPED_COMMANDS)
def test_closed_stdout_exits_three_in_process(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", _PIPED_COMMANDS)
def test_closed_stdout_pipe_exits_three_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ebchannels.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b""
