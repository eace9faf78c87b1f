import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmimos import cli
from hmimos.cli import MAX_ABS_SNR_DB, MAX_SNR_POINTS, main, parse_snr_range
from hmimos.config import load_scenario, parse_keyvalues, scenario_from_keyvalues
from hmimos.errors import ConfigError
from hmimos.numerics import DEFAULT_TOL

K2_SCENARIO = """\
# two users, 4 receive patches each
scenario.wavelength = 1.0
tx.layout = square
tx.nx = 4
tx.ny = 4
tx.dx = 0.4
tx.dy = 0.4
rx.nx = 2
rx.ny = 2
rx.dx = 0.4
rx.dy = 0.4
user1.z = 0.9
user1.cx = 0.5
user1.cy = 0.3
user2.z = 1.4
user2.cx = -0.6
user2.cy = 0.4
"""

K3_SCENARIO = """\
scenario.wavelength = 1.0
tx.layout = square
tx.nx = 4
tx.ny = 4
tx.dx = 0.4
tx.dy = 0.4
rx.nx = 1
rx.ny = 1
rx.dx = 0.4
user1.z = 0.8
user1.cx = 0.5
user1.cy = 0.3
user2.z = 1.2
user2.cx = -0.6
user2.cy = 0.4
user3.z = 1.6
user3.cx = 0.2
user3.cy = -0.7
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def test_channel_subcommand_dimension_contract(tmp_path, capsys):
    scenario = write(tmp_path, "k2.cfg", K2_SCENARIO)
    assert main(["channel", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "channel.csv")
    assert header == ["rx_pol", "tx_pol", "user", "rx_patch", "tx_patch", "re", "im"]
    # 24 x 48 complex entries
    assert len(rows) == 24 * 48
    values = {(r[0], r[1], r[2], r[3], r[4]) for r in rows}
    assert len(values) == 24 * 48


def test_precode_sweep_grid_contract(tmp_path):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    code = main(
        [
            "precode-sweep",
            "--scenario",
            str(scenario),
            "--out",
            str(tmp_path),
            "--schemes",
            "uc,two-layer",
            "--pa",
            "pa1,pa2,pa3",
            "--snr",
            "-10:10:20",
        ]
    )
    assert code == 0
    header, rows = read_rows(tmp_path / "precode_sweep.csv")
    assert header == ["scheme", "pa", "snr_db", "spectral_efficiency"]
    assert len(rows) == 2 * 3 * 4
    keys = {(r[0], r[1], r[2]) for r in rows}
    assert len(keys) == 24


def test_two_layer_pa2_accepts_mixed_patch_counts(tmp_path):
    scenario = write(tmp_path, "mixed.cfg", K2_SCENARIO + "user2.nx = 1\n")
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path)]
    assert main(argv + ["--schemes", "two-layer", "--pa", "pa2"]) == 0
    _, rows = read_rows(tmp_path / "precode_sweep.csv")
    assert len(rows) == 16
    assert all(float(r[3]) > 0 for r in rows)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--schemes", "", "--schemes names no precoding scheme"),
        ("--pa", "", "--pa names no power allocation"),
        ("--schemes", "uc,uc", "--schemes names a precoding scheme more than once"),
        ("--pa", "pa1,pa3,pa1", "--pa names a power allocation more than once"),
    ],
    ids=["empty-schemes", "empty-pa", "repeated-scheme", "repeated-pa"],
)
def test_precode_sweep_refuses_empty_or_repeated_lists(tmp_path, capsys, flag, value, message):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path)]
    assert main(argv + [f"{flag}={value}"]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cluster_scheme_accepts_mixed_patch_counts(tmp_path):
    scenario = write(tmp_path, "mixed.cfg", K3_SCENARIO + "user3.nx = 2\n")
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path)]
    assert main(argv + ["--schemes", "uc"]) == 0
    _, rows = read_rows(tmp_path / "precode_sweep.csv")
    assert len(rows) == 3 * 16
    assert all(r[0] == "uc" and np.isfinite(float(r[3])) for r in rows)


def test_cluster_scheme_requires_k_multiple_of_three(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("precoding ran before the user count was checked")

    monkeypatch.setattr("hmimos.experiments.two_layer_precoder", refuse)
    text = K2_SCENARIO + "user3.z = 2.0\nuser4.z = 2.4\nuser4.cx = 0.8\n"
    text = text.replace("user3.z = 2.0", "user3.z = 2.0\nuser3.cx = 0.3\nuser3.cy = 0.9")
    scenario = write(tmp_path, "k4.cfg", text)
    code = main(
        ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path), "--schemes", "uc"]
    )
    assert code == 2
    assert "divisible by 3" in capsys.readouterr().err


# A 5x4 transmitter that block diagonalization cannot serve: the users of
# the console-script smoke scenario, each on a 4-patch circle at pitch 0.3.
BD_FAILS_SCENARIO = """\
tx.layout = rectangle
tx.nx = 5
tx.ny = 4
tx.dx = 0.4
tx.dy = 0.4
rx.layout = circle
rx.total = 4
rx.dx = 0.3
rx.dy = 0.3
user1.z = 1.0
user1.cx = 0.5
user1.cy = 0.3
user2.z = 1.5
user2.cx = -0.6
user2.cy = 0.4
user3.z = 2.0
user3.cx = 0.2
user3.cy = -0.7
"""


def test_cluster_scheme_runs_no_block_diagonalization(tmp_path, capsys, monkeypatch):
    scenario = write(tmp_path, "bd_fails.cfg", BD_FAILS_SCENARIO)
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "interference of the other 8 blocks" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))

    def refuse(*args, **kwargs):
        raise AssertionError("the user-cluster scheme ran the two-layer precoder")

    monkeypatch.setattr("hmimos.experiments.two_layer_precoder", refuse)
    assert main(argv + ["--schemes", "uc"]) == 0
    _, rows = read_rows(tmp_path / "precode_sweep.csv")
    assert len(rows) == 3 * 16
    assert all(r[0] == "uc" and np.isfinite(float(r[3])) for r in rows)


def test_each_scheme_rows_ignore_the_other_scheme(tmp_path):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    rows = {}
    for schemes in ("uc", "two-layer", "two-layer,uc"):
        out = tmp_path / schemes
        argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(out)]
        assert main(argv + ["--schemes", schemes]) == 0
        rows[schemes] = read_rows(out / "precode_sweep.csv")[1]
    for scheme in ("uc", "two-layer"):
        assert rows[scheme] == [r for r in rows["two-layer,uc"] if r[0] == scheme]


def test_degenerate_scenario_exits_three(tmp_path, capsys):
    text = """\
scenario.wavelength = 1.0
tx.nx = 1
tx.ny = 1
tx.dx = 0.4
rx.nx = 1
rx.ny = 1
rx.dx = 0.4
user1.z = 1.0
"""
    scenario = write(tmp_path, "boresight.cfg", text)
    code = main(
        [
            "precode-sweep",
            "--scenario",
            str(scenario),
            "--out",
            str(tmp_path),
            "--schemes",
            "two-layer",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "H_" in err


# The console-script smoke scenario with a transmit pitch so small that the
# channel's squared entries underflow and the correlation kernel overflows.
UNDERFLOW_SCENARIO = """\
tx.nx = 3
tx.ny = 3
tx.dx = 1e-300
tx.dy = 0.4
rx.nx = 1
rx.ny = 1
rx.dx = 0.4
rx.dy = 0.4
user1.z = 1.0
user1.cx = 0.5
user1.cy = 0.3
user2.z = 1.5
user2.cx = -0.6
user2.cy = 0.4
user3.z = 2.0
user3.cx = 0.2
user3.cy = -0.7
"""


@pytest.mark.parametrize(
    "command, message",
    [("dof", "numerical failure: user 1: zero channel has no diversity gain"),
     ("precode-sweep", "precoding failed: degenerate channel block H: "),
     ("correlation", "numerical failure: user 1: xx correlation is not finite")],
    ids=["dof", "precode-sweep", "correlation"],
)
def test_underflowing_channel_exits_three(tmp_path, capsys, command, message):
    scenario = write(tmp_path, "tiny.cfg", UNDERFLOW_SCENARIO)
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, user, lateral, message",
    [(command, 1, 0, "a patch offset underflows to length 0")
     for command in ("channel", "dof", "capacity", "precode-sweep")]
    + [("correlation", 1, 0, "xx correlation is not finite"),
       ("dof", 3, 0.4, "a patch offset underflows to length 0")],
    ids=["channel", "dof", "capacity", "precode-sweep", "correlation", "dof-user3-corner"],
)
def test_user_above_a_transmit_patch_at_underflowing_height_exits_three(
    tmp_path, capsys, command, user, lateral, message
):
    # The user's 1x1 surface sits right over a patch of the 3x3 transmitter
    # (the centre one, or the corner one, whose zero offset is then the first
    # entry of the user's table), at a height whose square underflows.
    text = _edited(UNDERFLOW_SCENARIO, "tx.dx = 0.4")
    for line in (f"user{user}.z = 1e-170", f"user{user}.cx = {lateral}",
                 f"user{user}.cy = {lateral}"):
        text = _edited(text, line)
    scenario = write(tmp_path, "aligned.cfg", text)
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure: user {user}: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line, user", [("tx.dx = 1e300", 1), ("user2.cx = 1e308", 2)],
                         ids=["huge-pitch", "far-user"])
@pytest.mark.parametrize("command", ["channel", "dof", "capacity", "precode-sweep"])
def test_overflowing_channel_exits_three(tmp_path, capsys, command, line, user):
    text = _edited(_edited(UNDERFLOW_SCENARIO, "tx.dx = 0.4"), line)
    scenario = write(tmp_path, "huge.cfg", text)
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure: user {user}: channel is not finite" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "pitch, command, message",
    [("1e40", "dof", "numerical failure: user 1: diversity gain is not finite"),
     ("1e100", "dof", "numerical failure: user 1: diversity gain is not finite"),
     ("1e100", "capacity", "numerical failure: channel spectrum is not finite")],
    ids=["dof-1e40", "dof-1e100", "capacity-1e100"],
)
def test_overflowing_channel_metrics_exit_three(tmp_path, capsys, pitch, command, message):
    # The channel is finite, but its squared norm, Gram norm or spectrum overflows.
    text = _edited(_edited(UNDERFLOW_SCENARIO, f"tx.dx = {pitch}"), f"tx.dy = {pitch}")
    scenario = write(tmp_path, "huge.cfg", text)
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_preset_exits_two(tmp_path, capsys):
    assert main(["preset", "--preset", "fig99", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_runs_and_reruns_identically(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["preset", "--preset", "fig4", "--out", str(out1)]) == 0
    assert main(["preset", "--preset", "fig4", "--out", str(out2)]) == 0
    a = (out1 / "fig4_correlation_vs_spacing.csv").read_bytes()
    b = (out2 / "fig4_correlation_vs_spacing.csv").read_bytes()
    assert a == b


def test_capacity_subcommand(tmp_path):
    scenario = write(tmp_path, "k2.cfg", K2_SCENARIO)
    assert (
        main(["capacity", "--scenario", str(scenario), "--out", str(tmp_path), "--snr", "0:10:20"])
        == 0
    )
    header, rows = read_rows(tmp_path / "capacity.csv")
    assert header == ["snr_db", "family", "capacity"]
    assert len(rows) == 3 * 3


def test_dof_and_correlation_subcommands(tmp_path):
    scenario = write(tmp_path, "k2.cfg", K2_SCENARIO)
    assert main(["dof", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "dof.csv")
    assert header == ["user", "z", "dof"]
    assert len(rows) == 2
    assert main(["correlation", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "correlation.csv")
    assert len(rows) == 2 * 3 * 16 * 16


EVERY_SUBCOMMAND = pytest.mark.parametrize(
    "argv",
    [["channel"], ["correlation"], ["dof"], ["capacity", "--snr", "0:10:10"],
     ["precode-sweep", "--snr", "0:10:10"]],
    ids=lambda argv: argv[0],
)


@EVERY_SUBCOMMAND
def test_scenario_file_is_read_once(tmp_path, monkeypatch, argv):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    reads = []
    original = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        if self == scenario:
            reads.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert main(argv + ["--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert len(reads) == 1


@EVERY_SUBCOMMAND
def test_rows_given_to_the_writer_count_the_written_rows(tmp_path, monkeypatch, argv):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    lengths = []
    original = cli.write_csv

    def counting_write_csv(path, config, columns, rows):
        lengths.append(len(rows))
        return original(path, config, columns, rows)

    monkeypatch.setattr(cli, "write_csv", counting_write_csv)
    assert main(argv + ["--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    (written,) = [p for p in tmp_path.iterdir() if p.suffix == ".csv"]
    _, rows = read_rows(written)
    assert lengths == [len(rows)]


def test_successive_calls_share_no_parsed_state(tmp_path, monkeypatch):
    # The parser is built once per process; each call still parses afresh.
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "run", lambda args: seen.append(vars(args).copy()) or [])
    common = ["--scenario", "s.cfg", "--out", str(tmp_path)]
    calls = [
        ["precode-sweep", "--snr", "0:5:10", "--tol", "0.1", "--schemes", "uc", "--pa", "pa2"],
        ["precode-sweep"],
        ["precode-sweep", "--tol", "0.5"],
        ["channel"],
        ["capacity", "--snr", "-5:1:5"],
        ["capacity"],
        ["precode-sweep", "--tol", "2"],  # refused: nothing reaches run
        ["correlation"],
    ]
    codes = [main(argv[:1] + common + argv[1:]) for argv in calls]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0]
    base = {"scenario": Path("s.cfg"), "out": tmp_path}
    sweep = dict(base, command="precode-sweep", snr="-10:2:20", tol=DEFAULT_TOL,
                 schemes="two-layer,uc", pa="pa1,pa2,pa3")
    assert seen == [
        dict(sweep, snr="0:5:10", tol=0.1, schemes="uc", pa="pa2"),
        sweep,
        dict(sweep, tol=0.5),
        dict(base, command="channel"),
        dict(base, command="capacity", snr="-5:1:5"),
        dict(base, command="capacity", snr="-10:2:20"),
        dict(base, command="correlation"),
    ]


def test_missing_scenario_file_exits_two(tmp_path, capsys):
    assert main(["channel", "--scenario", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


def test_parse_snr_range():
    assert parse_snr_range("-10:10:20") == [-10.0, 0.0, 10.0, 20.0]
    assert parse_snr_range("3,5") == [3.0, 5.0]
    with pytest.raises(ConfigError):
        parse_snr_range("0:0:10")
    with pytest.raises(ConfigError):
        parse_snr_range("a:b:c")
    assert len(parse_snr_range("0:0.01:99.99")) == MAX_SNR_POINTS
    for text in ("0:1:10000", "0:1e-5:10", "-1e308:1e-300:1e308", "1e16:1:1e16"):
        with pytest.raises(ConfigError, match=f"--snr grid has more than {MAX_SNR_POINTS} points"):
            parse_snr_range(text)


def test_config_parse_errors():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_keyvalues("a.b = 1\na.b = 2\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_keyvalues("just some text\n")
    kv = parse_keyvalues(K2_SCENARIO)
    scenario = scenario_from_keyvalues(kv)
    assert scenario.n_users == 2
    assert scenario.transmit.count == 16
    with pytest.raises(ConfigError, match="unknown configuration key"):
        scenario_from_keyvalues({**kv, "mystery.knob": "1"})
    missing = {k: v for k, v in kv.items() if not k.startswith("user2")}
    missing["user3.z"] = "2.0"
    with pytest.raises(ConfigError, match="numbered"):
        scenario_from_keyvalues(missing)


def test_load_scenario_roundtrip(tmp_path):
    path = write(tmp_path, "k3.cfg", K3_SCENARIO)
    scenario = load_scenario(path)
    assert scenario.n_users == 3
    assert scenario.users[2].surface.center == (0.2, -0.7, 1.6)


def test_load_scenario_decodes_utf8_whatever_the_locale(tmp_path):
    # The CLI reads scenario files as UTF-8; the library must decode the same
    # bytes, so a read that falls back to the locale's encoding is an error.
    path = tmp_path / "k3.cfg"
    path.write_bytes(("# pitch 0.4 λ\n" + K3_SCENARIO).encode("utf-8"))
    code = (
        "import sys\n"
        "from hmimos.config import load_scenario\n"
        "print(load_scenario(sys.argv[1]).n_users)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", code, str(path)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "3"


def test_preset_grid_contracts(tmp_path):
    assert main(["preset", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "fig4_correlation_vs_spacing.csv")
    assert header == ["spacing", "pol", "n", "l", "raw", "normalized"]
    assert len(rows) == 3 * 50  # three spacings, fifty patches
    assert {r[0] for r in rows} == {"0.050000000000000003", "0.20000000000000001", "0.40000000000000002"}

    assert main(["preset", "--preset", "fig9", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "fig9a_capacity_vs_snr.csv")
    assert header == ["snr_db", "family", "capacity"]
    assert len(rows) == 16 * 3  # snr grid x families
    header, rows = read_rows(tmp_path / "fig9b_capacity_vs_distance.csv")
    assert header == ["z", "family", "capacity"]
    assert len(rows) == 8 * 3  # distances x families

    assert main(["preset", "--preset", "fig10", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "fig10_dof_vs_antennas.csv")
    assert header == ["z", "n_tx", "dof"]
    assert len(rows) == 3 * 9  # three distances, nine element counts
    assert {r[0] for r in rows} == {"5", "7", "9"}

    for name in ("fig12", "fig13"):
        assert main(["preset", "--preset", name, "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / f"{name}_spectral_efficiency.csv")
        assert header == ["scheme", "pa", "snr_db", "spectral_efficiency"]
        assert len(rows) == 2 * 3 * 16  # schemes x allocations x snr grid


@pytest.mark.parametrize("command", ["dof", "precode-sweep"])
@pytest.mark.parametrize(
    "line", ["scenario.wavelength = nan", "tx.dx = inf"], ids=["wavelength-nan", "dx-inf"]
)
def test_non_finite_number_exits_two(tmp_path, capsys, command, line):
    key = line.split(" =")[0]
    text = "\n".join(
        line if row.startswith(key + " =") else row for row in K3_SCENARIO.splitlines()
    )
    scenario = write(tmp_path, "bad.cfg", text + "\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    assert f"key {key}: expected a finite number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["dof", "correlation"])
@pytest.mark.parametrize(
    "lines, field",
    [("tx.nx = 10000000000000000000", "nx * ny"),
     ("tx.layout = circle\ntx.total = 100000000000000000000", "n_total")],
    ids=["grid", "circle"],
)
def test_oversized_surface_exits_two(tmp_path, capsys, command, lines, field):
    # numpy cannot index this many patches: refused as a configuration error
    # rather than a ValueError traceback from the index arrays.
    text = _edited(UNDERFLOW_SCENARIO, "tx.dx = 0.4")
    if "circle" in lines:
        rows = text.splitlines(True)
        text = "".join(row for row in rows if not row.startswith(("tx.nx", "tx.ny")))
    for line in lines.split("\n"):
        text = _edited(text, line)
    scenario = write(tmp_path, "huge.cfg", text)
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {field} must be at most 100000000" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_linalg_error_exits_three(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("hmimos.cli.dof_rows", diverge)
    scenario = write(tmp_path, "k2.cfg", K2_SCENARIO)
    assert main(["dof", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def test_memory_error_exits_three(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 2.98 GiB for an array with shape (20000, 20000)"

    def exhaust(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("hmimos.cli.dof_rows", exhaust)
    scenario = write(tmp_path, "k2.cfg", K2_SCENARIO)
    assert main(["dof", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"hmimos: out of memory: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("text", ["nan", "-inf,0", "0:1:inf", "inf:1:2", "0:nan:2"])
def test_parse_snr_range_refuses_non_finite(text):
    with pytest.raises(ConfigError, match="--snr expects finite numbers"):
        parse_snr_range(text)


@pytest.mark.parametrize("command", ["capacity", "precode-sweep"])
@pytest.mark.parametrize("snr", ["nan", "-inf,0", "0:1:inf"])
def test_non_finite_snr_exits_two(tmp_path, capsys, command, snr):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path), "--snr", snr])
    assert code == 2
    assert "--snr expects finite numbers" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_oversized_snr_grid_exits_two(tmp_path, capsys):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path)]
    assert main(argv + ["--snr", "0:1e-5:10"]) == 2
    assert "--snr grid has more than" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, snr",
    [("capacity", "4000"), ("capacity", "-4000"), ("precode-sweep", "-4000"),
     ("capacity", "3080"), ("precode-sweep", "3080"),
     ("capacity", "300.000001"), ("precode-sweep", "-300.000001,0"), ("capacity", "250:100:450")],
)
def test_snr_outside_range_exits_two(tmp_path, capsys, command, snr):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path), "--snr", snr])
    assert code == 2
    bounds = f"[-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}]"
    assert f"--snr values must lie in {bounds} dB" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["capacity", "precode-sweep"])
def test_snr_range_edges_give_finite_values(tmp_path, command):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    edges = f"-{MAX_ABS_SNR_DB:g},{MAX_ABS_SNR_DB:g}"
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path), "--snr", edges]) == 0
    header, rows = read_rows(next(tmp_path.glob("*.csv")))
    snr = header.index("snr_db")
    assert {float(row[snr]) for row in rows} == {-MAX_ABS_SNR_DB, MAX_ABS_SNR_DB}
    assert all(np.isfinite(float(row[-1])) for row in rows)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1", "x"])
def test_bad_tolerance_exits_two(tmp_path, capsys, tol):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path), "--tol", tol]
    assert main(argv) == 2
    assert "argument --tol: expected a number with 0 <= tol < 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["channel", "correlation", "dof", "capacity"])
def test_tolerance_only_on_precode_sweep(tmp_path, capsys, command):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    argv = [command, "--scenario", str(scenario), "--out", str(tmp_path), "--tol", "0.5"]
    assert main(argv) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_zero_tolerance_is_accepted(tmp_path):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    argv = ["precode-sweep", "--scenario", str(scenario), "--out", str(tmp_path), "--tol", "0"]
    assert main(argv) == 0


def test_unreadable_scenario_and_unwritable_output_exit_two(tmp_path, capsys):
    scenario = write(tmp_path, "k3.cfg", K3_SCENARIO)
    assert main(["channel", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hmimos: file error: ") and f"directory: '{tmp_path}'" in err
    taken = write(tmp_path, "taken", "")
    assert main(["channel", "--scenario", str(scenario), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hmimos: file error: ") and f"File exists: '{taken}'" in err
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(("# caf\xe9\n" + K3_SCENARIO).encode("latin-1"))
    assert main(["channel", "--scenario", str(latin1), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hmimos: file error: ") and f"'{latin1}' is not UTF-8 text" in err
    assert not list(tmp_path.rglob("*.csv"))


def _edited(text, line):
    """``text`` with the line of ``line``'s key replaced by ``line``, or with it appended."""
    key = line.split(" =")[0]
    rows = text.splitlines()
    if any(row.startswith(key + " =") for row in rows):
        rows = [line if row.startswith(key + " =") else row for row in rows]
    else:
        rows.append(line)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("tx.layout = hexagon", "key tx.layout: expected one of square, rectangle, circle"),
        ("tx.ny = 5", "key tx.layout: square layout needs nx == ny, got 4 x 5"),
        ("user1.foo = 3", "unknown configuration key 'user1.foo'"),
        ("tx.foo = 3", "unknown configuration key 'tx.foo'"),
        ("rx.foo = 3", "unknown configuration key 'rx.foo'"),
        ("rx.z = 2.0", "unknown configuration key 'rx.z'"),
        ("scenario.noise_power = 1", "unknown configuration key 'scenario.noise_power'"),
        (
            "tx.layout = circle\ntx.total = 12\ntx.nx = 99",
            "key tx.nx: not read by the chosen layout",
        ),
        ("tx.total = 16", "key tx.total: not read by the chosen layout"),
        ("user1.total = 4", "key user1.total: not read by the chosen layout"),
        (
            "user1.layout = circle\nuser1.total = 4\nuser2.layout = circle\nuser2.total = 4",
            "key rx.nx: not read by the chosen layout",
        ),
        ("user01.cx = 5.0\nuser01.z = 9.0", "unknown configuration key 'user01.cx'"),
    ],
    ids=[
        "hexagon", "square-nx-ne-ny", "user-foo", "tx-foo", "rx-foo", "rx-z", "noise-power",
        "circle-nx", "grid-total", "user-grid-total", "rx-nx-all-circles", "user-leading-zero",
    ],
)
def test_lax_scenario_key_exits_two(tmp_path, capsys, lines, message):
    text = K2_SCENARIO
    for line in lines.split("\n"):
        text = _edited(text, line)
    scenario = write(tmp_path, "bad.cfg", text)
    assert main(["dof", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_user_layout_overrides_rx_default(tmp_path):
    text = _edited(K2_SCENARIO, "rx.layout = square") + "user2.layout = rectangle\nuser2.nx = 3\n"
    scenario = load_scenario(write(tmp_path, "ok.cfg", text))
    assert scenario.users[0].surface.layout == "square"
    assert (scenario.users[1].surface.nx, scenario.users[1].surface.ny) == (3, 2)


@pytest.mark.parametrize(
    "lines, message",
    [("tx.nx = 0", "key tx.nx: expected a positive"),
     ("tx.dx = -0.4", "key tx.dx: expected a positive"),
     ("rx.dy = 0", "key rx.dy: expected a positive"),
     ("user2.z = -1.5", "key user2.z: expected a positive"),
     ("scenario.wavelength = -1", "key scenario.wavelength: expected a positive"),
     # no power key: sweeps spend a unit budget, so any value is an unknown key
     ("scenario.total_power = 1", "unknown configuration key 'scenario.total_power'"),
     ("user3.layout = circle\nuser3.total = 0", "key user3.total: expected a positive")],
    ids=["tx-nx", "tx-dx", "rx-dy", "user2-z", "wavelength", "total-power", "user3-total"],
)
def test_out_of_range_value_names_its_key(tmp_path, capsys, lines, message):
    text = _edited(UNDERFLOW_SCENARIO, "tx.dx = 0.4")  # the console-script smoke scenario
    for line in lines.split("\n"):
        text = _edited(text, line)
    scenario = write(tmp_path, "bad.cfg", text)
    assert main(["channel", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert not list(tmp_path.glob("*.csv"))
