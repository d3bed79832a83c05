"""The command-line tool's output bytes, pinned.

COMMANDS is a fixed list of causalplan invocations, run in order in one
working directory that holds copies of the sample files (so no printed
path depends on where the repository lives).  cli_digests.json records,
for each, its exit code and the SHA-256 of its standard output and of
each file it writes.  test_cli.py runs the list in-process through
cli.main; run this module to hold an installed entry point to the same
bytes:

    python tests/cli_digests.py causalplan
    PYTHONPATH=src python tests/cli_digests.py python -m causalplan.cli

It prints one line per command that differs and exits 1 if any does.
With --write first, it records the digests it gets instead, for a change
that moves the output on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "samples"
DIGESTS = HERE / "cli_digests.json"

COST = "goto=timeEstimate(@atRobo,$0)"
GRID = ["boxes-grid.cp", "boxes-grid.prob"]
CORRIDOR = ["--world", "corridor.world"]

# (name, argv, files the command writes); a later command may read what
# an earlier one wrote
COMMANDS: list[tuple[str, list[str], tuple[str, ...]]] = [
    ("demo toh 3", ["demo", "toh", "--disks", "3"], ()),
    ("demo toh 4", ["demo", "toh", "--disks", "4"], ()),
    ("demo boxes", ["demo", "boxes"], ()),
    ("demo mapp 3x3", ["demo", "mapp", "--world", "open3.world", "--dimacs-out", "mapp.cnf"],
     ("mapp.cnf",)),
    ("plan boxes", ["plan", "boxes.cp", "boxes.prob"], ()),
    ("plan boxes-grid", ["plan", *GRID], ()),
    ("plan boxes-grid world", ["plan", *GRID, *CORRIDOR], ()),
    ("plan boxes-grid world cost",
     ["plan", *GRID, *CORRIDOR, "--cost", COST, "--plan-out", "grid.plan"], ("grid.plan",)),
    ("plan mapp", ["plan", "mapp.cp", "mapp.prob"], ()),
    ("plan toh", ["plan", "toh.cp", "toh.prob", "--plan-out", "toh.plan"], ("toh.plan",)),
    ("predict boxes", ["predict", "boxes.cp", "boxes.query"], ()),
    ("check boxes", ["check", "boxes.cp"], ()),
    ("check boxes-grid world", ["check", "boxes-grid.cp", *CORRIDOR], ()),
    ("check mapp", ["check", "mapp.cp"], ()),
    ("check toh", ["check", "toh.cp"], ()),
    ("validate boxes-grid", ["validate", *GRID, "grid.plan", *CORRIDOR, "--cost", COST], ()),
    ("validate toh", ["validate", "toh.cp", "toh.prob", "toh.plan"], ()),
    ("ground toh cnf", ["ground", "toh.cp", "--emit", "cnf", "--horizon", "3"], ()),
    ("ground boxes-grid cnf", ["ground", "boxes-grid.cp", *CORRIDOR, "--emit", "cnf"], ()),
    ("plan toh dimacs-out", ["plan", "toh.cp", "toh.prob", "--solver", "dimacs-out", "toh.cnf"],
     ("toh.cnf",)),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(workdir: Path) -> None:
    """Copy the samples into workdir, plus a 3x3 world with two landmarks."""
    for f in SAMPLES.iterdir():
        shutil.copy(f, workdir / f.name)
    (workdir / "open3.world").write_text("1..\n...\n..2\n", encoding="utf-8")


def run_commands(invoke, workdir: Path) -> dict:
    """Each command's digests; invoke(argv, workdir) runs one and returns
    its exit code and standard output as bytes."""
    prepare(workdir)
    out = {}
    for name, argv, files in COMMANDS:
        code, stdout = invoke(argv, workdir)
        written = {f: _sha((workdir / f).read_bytes()) if (workdir / f).exists() else None
                   for f in files}
        out[name] = {"exit": code, "stdout": _sha(stdout), "files": written}
    return out


def in_process(argv, workdir: Path) -> tuple[int, bytes]:
    """Run argv through cli.main in this process, from workdir."""
    from causalplan.cli import main
    stdout, here = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, stdout.getvalue().encode("utf-8")


def through(prefix: list[str]):
    """An invoke that runs prefix + argv as a child process."""
    env = {k: v for k, v in os.environ.items() if k != "CAUSALPLAN_SEED"}
    if env.get("PYTHONPATH"):
        # the commands run in another directory, so PYTHONPATH=src must
        # still find the package
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) if p else p for p in env["PYTHONPATH"].split(os.pathsep))

    def invoke(argv, workdir: Path) -> tuple[int, bytes]:
        done = subprocess.run([*prefix, *argv], cwd=workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return done.returncode, done.stdout
    return invoke


def pinned() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main(args: list[str]) -> int:
    write = args[:1] == ["--write"]
    prefix = args[1:] if write else args
    if not prefix:
        print(__doc__.strip(), file=sys.stderr)
        return 3
    with tempfile.TemporaryDirectory() as tmp:
        got = run_commands(through(prefix), Path(tmp))
    if write:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} digests to {DIGESTS}")
        return 0
    want = pinned()
    bad = [name for name in want.keys() | got.keys() if want.get(name) != got.get(name)]
    for name in sorted(bad):
        print(f"{name}: got {got.get(name)}, pinned {want.get(name)}")
    print(f"{len(got) - len(bad)} of {len(want)} commands match their pinned digests")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
