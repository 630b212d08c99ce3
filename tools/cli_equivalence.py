"""Fingerprint the CLI on the catalog command matrix, for comparing two trees.

Usage:
    python3 tools/cli_equivalence.py SRC_DIR > fingerprints.txt

Imports twistor4 from SRC_DIR (the `src/` directory of a checkout) and runs
nine commands on each of the seven catalog surfaces in-process through
`cli.main`: `grid --n 41` as JSON and as CSV, `grid --n 5`, `isotropy` and
`residuals` each as text and as `--json`, and `analyze` at two interior
points of the surface's domain.  Prints one line per command: the command,
its exit code, the sha256 of its stdout and its stderr.  Two trees give the
same CLI output on the matrix exactly when their outputs are identical, e.g.

    diff <(python3 tools/cli_equivalence.py old/src) \\
         <(python3 tools/cli_equivalence.py src)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

# interior points of the domain, as fractions of its extents
_POINTS = ((0.3, 0.6), (0.7, 0.2))


def _commands(name, domain):
    u0, u1, v0, v1 = domain
    yield ("grid", "--surface", name, "--n", "41")
    yield ("grid", "--surface", name, "--n", "41", "--format", "csv")
    yield ("grid", "--surface", name, "--n", "5")
    for command in ("isotropy", "residuals"):
        yield (command, "--surface", name)
        yield (command, "--surface", name, "--json")
    for fu, fv in _POINTS:
        yield ("analyze", "--surface", name, "--at",
               f"{u0 + fu * (u1 - u0):.6g}", f"{v0 + fv * (v1 - v0):.6g}")


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "twistor4").is_dir():
        print("usage: cli_equivalence.py SRC_DIR  (SRC_DIR holds twistor4/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from twistor4 import cli
    from twistor4.catalog import catalog_entries

    for entry in catalog_entries():
        for command in _commands(entry.name, entry.surface.domain):
            code, out, err = _run(cli.main, command)
            digest = hashlib.sha256(out.encode()).hexdigest()
            print(f"{' '.join(command)} | exit {code} | {digest} | {err!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
