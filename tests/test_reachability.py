"""Every function in ``src/hmimos`` runs on some CLI path.

A fresh interpreter runs the five scenario subcommands on the console-script
smoke scenario (at receive pitch 0.4 and 0.3) and all 11 presets, with a
profile hook on function calls installed before ``hmimos`` is imported.  Any
function definition in ``src/hmimos`` whose code never ran, outside the
allowlist below, fails the test: a helper that only tests call belongs in
``tests/_oracles.py``.  fig10 and fig11 run on one patch count each, which
takes their real code paths in milliseconds.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Functions no CLI path runs that stay in src/, each with its reason.
ALLOWED = {
    "errors.PrecoderDegeneracyError.__init__": "raised only on degenerate channels",
    "csvio.BlockTable.__len__": "read by the benchmark's csvio.rows counter",
}

RUNNER = """\
import json, sys
from pathlib import Path

called = set()

def on_call(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(on_call)
from hmimos import cli, experiments

experiments.DOF_GRID = (36,)
experiments.SHAPE_GRID = (16,)
out = Path(sys.argv[1])
smoke = out / "s.cfg"
smoke.write_text(
    "tx.nx = 3\\ntx.ny = 3\\ntx.dx = 0.4\\ntx.dy = 0.4\\n"
    "rx.nx = 1\\nrx.ny = 1\\nrx.dx = 0.4\\nrx.dy = 0.4\\n"
    "user1.z = 1.0\\nuser1.cx = 0.5\\nuser1.cy = 0.3\\n"
    "user2.z = 1.5\\nuser2.cx = -0.6\\nuser2.cy = 0.4\\n"
    "user3.z = 2.0\\nuser3.cx = 0.2\\nuser3.cy = -0.7\\n"
)
fine = out / "fine_rx.cfg"
fine.write_text(smoke.read_text().replace("rx.dx = 0.4\\nrx.dy = 0.4", "rx.dx = 0.3\\nrx.dy = 0.3"))
runs = [
    [command, "--scenario", str(scenario), "--out", str(out / scenario.stem), *extra]
    for scenario in (smoke, fine)
    for command, extra in [
        ("channel", []), ("correlation", []), ("dof", []),
        ("capacity", ["--snr", "0,10"]), ("precode-sweep", ["--tol", "1e-10"]),
    ]
]
runs += [["preset", "--preset", name, "--out", str(out / "presets")] for name in experiments.PRESETS]
for argv in runs:
    assert cli.main(argv) == 0, argv
sys.setprofile(None)
package = str(Path(cli.__file__).resolve().parent)
Path(sys.argv[2]).write_text(json.dumps(sorted(c for c in called if c[0].startswith(package))))
"""


def _definitions():
    """(file, first line) -> 'module.Qual.name' of every function in src/hmimos.

    A decorated function's code starts at its first decorator.
    """
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted((SRC / "hmimos").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return found


def test_every_src_function_runs_on_a_cli_path(tmp_path):
    reached = tmp_path / "reached.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tmp_path), str(reached)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    called = {(path, line) for path, line in json.loads(reached.read_text())}
    never_run = {name for key, name in _definitions().items() if key not in called}
    assert set(ALLOWED) <= never_run, "allowlisted but run or gone: drop from ALLOWED"
    unexpected = sorted(never_run - set(ALLOWED))
    assert not unexpected, f"no CLI path runs {', '.join(unexpected)}"
