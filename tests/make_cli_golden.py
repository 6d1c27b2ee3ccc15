"""Write tests/cli_golden.json: the stdout of every command in the README's CLI
block, of its ``asym ... --fit`` line again with ``--format plain`` and
``--format json``, of every ``eval`` route in csv and plain and of ``check
qpoly`` in json and csv (test_cli.GOLDEN_ARGVS), with the mpmath version and
backend that printed them.  tests/test_cli.py compares the same runs against
it byte for byte.  A change that moves a printed digit regenerates the file
and says why:

    PYTHONPATH=src python tests/make_cli_golden.py
"""

import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import GOLDEN_ARGVS, GOLDEN_PATH, golden_mpmath  # noqa: E402

from hyperzeta import cli  # noqa: E402


def main():
    stdout = {}
    for argv in GOLDEN_ARGVS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        if code:
            raise SystemExit(f"{shlex.join(argv)} exited {code}")
        stdout[shlex.join(argv)] = out.getvalue()
    golden = {"mpmath": golden_mpmath(), "stdout": stdout}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
