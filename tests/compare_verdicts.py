"""Compare the `verify --json` and `eval` verdicts of two source trees, row by row.

    python tests/compare_verdicts.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``elliptic_bailey`` package (a
tree's ``src``).  Every row of ``tests/data/verdict-commands.txt`` is one
``verify`` argument list, or an ``eval`` command line when it starts with
``eval``.  Each tree runs all rows in one child process under
``OPENBLAS_NUM_THREADS=1``: a ``verify`` row with ``verify`` before it and
``--json`` after it, an ``eval`` row as it is.  Before each row the child
forgets the warnings it has shown, so a row's stderr holds what the row
would print in a process of its own.

Prints, per row, whether stdout and the exit code are equal and both trees'
stderr line counts, then the number of equal rows.  Exits 0 when every row
is equal, else 1.  Not a test module: pytest does not collect it.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

COMMANDS = Path(__file__).resolve().parent / "data" / "verdict-commands.txt"

CHILD = r"""
import contextlib, io, json, sys, warnings
sys.path.insert(0, sys.argv[1])
from elliptic_bailey import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        # a new filter list clears every module's record of warnings shown
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def rows() -> list:
    lines = COMMANDS.read_text().splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def run_tree(src: str, argvs: list) -> list:
    """[stdout, exit code, stderr] of each argv, run by one child on ``src``."""
    if not (Path(src) / "elliptic_bailey").is_dir():
        sys.exit(f"compare_verdicts: no elliptic_bailey package under {src}")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD, src], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commands = rows()
    argvs = [row if row[0] == "eval" else ["verify", *row, "--json"] for row in commands]
    parent, change = (run_tree(src, argvs) for src in args)
    equal = 0
    for row, (out_a, code_a, err_a), (out_b, code_b, err_b) in zip(commands, parent, change):
        same = out_a == out_b and code_a == code_b
        equal += same
        lines = f"{len(err_a.splitlines())} -> {len(err_b.splitlines())}"
        print(f"{'equal' if same else 'DIFFER'}  exit {code_a} -> {code_b}  "
              f"stderr {lines} lines  {shlex.join(row)}")
    print(f"{equal} of {len(commands)} rows equal in stdout and exit code")
    return 0 if equal == len(commands) else 1


if __name__ == "__main__":
    sys.exit(main())
