"""Fingerprint the CLI on a command matrix, for comparing two trees.

Usage:
    python3 tools/cli_equivalence.py SRC_DIR > fingerprints.txt

Imports twistor4 from SRC_DIR (the `src/` directory of a checkout) and runs
commands in-process through `cli.main`:

- eleven commands on each of the seven catalog surfaces and on five `--expr`
  surfaces (a degree-5 polynomial graph and its mirror, whose monomials
  repeat u^p and v^q, the helicoid, a graph whose components repeat calls,
  and a non-isotropic Hoffman-Osserman minimal surface, built by
  `tests/helpers.py`): `grid --n 41` as JSON and as CSV, `grid --n 5`,
  `grid --n 3` (the smallest grid) as JSON and as CSV, `isotropy` and
  `residuals` each as text and as `--json`, and `analyze` at two interior
  points of the surface's domain;
- `analyze` on `holo_square` with each seed branch pinned, which
  fingerprints the normal frame of every seed;
- a few refusals of a `--domain` or an `--at` that no tree should accept.

Prints one line per command: the command, its exit code, the sha256 of its
stdout and its stderr.  Two trees give the same CLI output on the matrix
exactly when their outputs are identical, e.g.

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

# f = 0.05 w^5 + 0.1 w^4 - 0.2 w^3 + 0.3 w^2, w = u + iv: (u, v, Re f, +-Im f)
_RE_F = ("0.05*u^5 + 0.1*u^4 - 0.5*u^3*v^2 - 0.2*u^3 - 0.6*u^2*v^2 + 0.3*u^2 "
         "+ 0.25*u*v^4 + 0.6*u*v^2 + 0.1*v^4 - 0.3*v^2")
_IM_F = ("0.25*u^4*v + 0.4*u^3*v - 0.5*u^2*v^3 - 0.6*u^2*v - 0.4*u*v^3 "
         "+ 0.6*u*v + 0.05*v^5 + 0.2*v^3")
EXPR_SURFACES = (
    ("graph5", f"u, v, {_RE_F}, {_IM_F}", (-1.0, 1.0, -1.0, 1.0)),
    ("mirror5", f"u, v, {_RE_F}, -({_IM_F})", (-1.0, 1.0, -1.0, 1.0)),
    ("helicoid", "sinh(v)*cos(u), sinh(v)*sin(u), u, 0", (-1.0, 1.0, 0.3, 1.3)),
    # f = exp(w)/4 + sin(w)/5
    ("calls", "u, v, exp(u)*cos(v)/4 + sin(u)*cosh(v)/5, "
              "exp(u)*sin(v)/4 + cos(u)*sinh(v)/5", (-1.0, 1.0, -1.0, 1.0)),
)

# the frame of each seed (--seed-normal 0..2: e3, e2, e1)
SEED_BRANCHES = tuple(
    ("analyze", "--surface", "holo_square", "--at", "0.3", "0.2",
     "--seed-normal", str(k)) for k in range(3))

# refused with exit 2 since --domain and --at are checked
REFUSALS = (
    ("grid", "--surface", "plane", "--n", "5", "--domain", "0", "inf", "0", "1"),
    ("grid", "--surface", "plane", "--n", "5", "--domain", "1", "0", "0", "1"),
    ("isotropy", "--surface", "plane", "--n", "5", "--domain", "0", "1", "1", "1"),
    ("residuals", "--surface", "plane", "--n", "5", "--domain", "0", "nan", "0", "1"),
    ("analyze", "--surface", "plane", "--domain", "0", "inf", "0", "1",
     "--at", "0.1", "0.1"),
    ("analyze", "--surface", "holo_square", "--at", "1.5", "0"),
)


def _commands(surface_args, domain):
    u0, u1, v0, v1 = domain
    yield ("grid", *surface_args, "--n", "41")
    yield ("grid", *surface_args, "--n", "41", "--format", "csv")
    yield ("grid", *surface_args, "--n", "5")
    yield ("grid", *surface_args, "--n", "3")
    yield ("grid", *surface_args, "--n", "3", "--format", "csv")
    for command in ("isotropy", "residuals"):
        yield (command, *surface_args)
        yield (command, *surface_args, "--json")
    for fu, fv in _POINTS:
        yield ("analyze", *surface_args, "--at",
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
    sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "tests"))
    from helpers import hoffman_osserman
    from twistor4 import cli
    from twistor4.catalog import catalog_entries

    # g1 = 0.25+0.27i - (0.88-0.40i) z + (0.02-0.25i) z^2, g2 likewise: both
    # Gauss maps move, so neither lift is constant
    ho = hoffman_osserman([0.25 + 0.27j, -0.88 + 0.40j, 0.02 - 0.25j],
                          [0.73 + 0.37j, -0.53 + 0.02j, -0.26 + 0.80j])

    matrix = [_commands(("--surface", e.name), e.surface.domain)
              for e in catalog_entries()]
    matrix += [_commands(("--expr", text, "--domain", *map(repr, domain)), domain)
               for _, text, domain in (*EXPR_SURFACES,
                                       ("hoffman_osserman", ho, (-0.5, 0.5, -0.5, 0.5)))]
    for command in (*(c for commands in matrix for c in commands),
                    *SEED_BRANCHES, *REFUSALS):
        code, out, err = _run(cli.main, command)
        digest = hashlib.sha256(out.encode()).hexdigest()
        print(f"{' '.join(command)} | exit {code} | {digest} | {err!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
