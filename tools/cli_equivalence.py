"""Fingerprint the CLI on a command matrix, for comparing two trees.

Usage:
    python3 tools/cli_equivalence.py SRC_DIR > fingerprints.txt

Imports twistor4 from SRC_DIR (the `src/` directory of a checkout) and runs
commands in-process through `cli.main`:

- twelve commands on each of the seven catalog surfaces and on seven `--expr`
  surfaces (a degree-5 polynomial graph and its mirror, whose monomials
  repeat u^p and v^q, the helicoid, a graph whose components repeat calls,
  an isotropic quadric whose automatic seed is e1, the third one tried,
  and two non-isotropic Hoffman-Osserman minimal surfaces, built by
  `tests/helpers.py`, whose smooth frames are those of seed e3 and of seed
  e2): `grid --n 41` as JSON and as CSV, `grid --n 5`, `grid --n 3` (the
  smallest grid) as JSON and as CSV, `isotropy` and `residuals` each as text
  and as `--json`, `residuals --n 5 --json` (the smallest h grid, every other
  node of a 9x9 one), and `analyze` at two interior points of the surface's
  domain, at its centre (where `nonisothermal_graph`'s g11 - g22 and g12
  vanish to first order) and at four points on its boundary, two corners
  and two edges;
- `analyze` and a 5x5 `grid` on `holo_square` with each seed branch pinned,
  which fingerprint the normal frame of every seed (at (0, 0) e2 and e1
  are tangent, so the pinned grids of branches 1 and 2 are refused),
  `analyze` with each seed branch pinned at two interior points of
  `catenoid_E3` and of the degree-5 polynomial graph, and `isotropy` and
  `residuals` with branch 0 pinned; `residuals --json` with
  branch 1 or 2 pinned on the surfaces where that frame is continuous
  (`catenoid_E3` and the Hoffman-Osserman surfaces);
- `grid`, `isotropy --json` and `residuals --json` on `holo_square` with
  `--domain 0 0.5 0 0.5`, whose config names the sampled rectangle in its
  surface block too, and `isotropy --json` and `residuals` at n = 5 on the
  plane `u, v, 0, 0` over [-8e307, 8e307]^2, whose diagonal and h^2
  overflow a float;
- a few refusals of a `--domain` or an `--at` that no tree should accept,
  of a surface undefined at a node of the h grid and, earlier, at one of
  the h/2 grid, of one undefined at a node of the h/2 grid only, and of
  `residuals --n 1000000`, a grid memory cannot hold, run with the address
  space capped 2 GiB above its present size (Linux);
- `analyze` where a point's metric fails its checks in floats: at (0.5,
  0.5) on `1e80*u, 1e80*(u+v), 0, 0`, whose g12^2 overflows (exit 4), and
  at (0.1, 0.1) on `1e-100*u, 1e-100*v, 0, 0`, whose det g underflows to 0
  (exit 3);
- seven commands on a minimal surface whose second fundamental form b is
  finite but overflows when squared (`u, v, 1e160*(u^2 - v^2), 2e160*u*v`
  on [0, 1e-170]^2): `isotropy` as text at n = 3 and n = 5, `isotropy
  --json`, `residuals` as text and as `--json`, and `grid` as JSON and as
  CSV, each at n = 5, which refuse their nan or inf results with exit 4,
  one stderr line and no numpy warning, whatever the format;
- `analyze --expr` on text that each refusal of the expression parser
  rejects, nesting past its depth limit with and without spaces included,
  so that a parser change is checked on its messages and offsets;
- `--out FILE` on `holo_square` and `catenoid_E3`: `grid --n 41` as JSON
  and as CSV, `isotropy --json` and `residuals --json`, each written over a
  temporary file that already holds 5 MiB of junk, longer than any of
  these outputs, so that the file must end where the output ends;
- `_compile` (no CLI command: each evaluates a fresh surface once, so none
  runs compiled jets) on each surface of the first item: its output is the
  source `surface_expr._compile` generates for the surface's components,
  then the object each bound name k<i> holds, a function by its name.

Prints one line per command: the command, its exit code, the sha256 of its
stdout and its stderr, and for `--out FILE` the sha256 of the file.  Two
trees give the same CLI output and the same compiled jets on the matrix
exactly when their outputs are identical, e.g.

    diff <(python3 tools/cli_equivalence.py old/src) \\
         <(python3 tools/cli_equivalence.py src)

Given two trees, compares the values of their outputs instead:

    python3 tools/cli_equivalence.py old/src src

runs the matrix on each tree in a child process and prints one line per
command whose output differs: how many numbers differ, how many of those
differ only in the sign of a zero, the largest relative difference among
numbers with |x| > 1e-12 (and where it is) and the largest absolute one
among the others, then the command.  JSON output is compared leaf by leaf,
CSV cell by cell and text token by token.  Exit codes, stderr, booleans,
strings and the shape of the output must match exactly; a mismatch is
printed as such and makes the exit status 1.  A file written by `--out`
is compared as its stdout is, after it.  A `_compile` entry must match
exactly: any change to a program is a mismatch.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

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
    # (Re f, u, v, Im f) for f = 0.3 w^2: isotropic, and e3 and e2 lie near its
    # tangent planes, so the automatic seed is the last one tried, e1
    ("seed_e1", "0.3*u^2 - 0.3*v^2, u, v, 0.6*u*v", (-1.0, 1.0, -1.0, 1.0)),
)

# the frame of each seed (--seed-normal 0..2: e3, e2, e1)
SEED_BRANCHES = tuple(
    command for k in map(str, range(3)) for command in (
        ("analyze", "--surface", "holo_square", "--at", "0.3", "0.2",
         "--seed-normal", k),
        ("grid", "--surface", "holo_square", "--n", "5", "--seed-normal", k),
    )) + tuple((command, "--surface", "holo_square", "--seed-normal", "0", "--json")
               for command in ("isotropy", "residuals"))

# a catalog surface sampled on a rectangle of its own
_ON_DOMAIN = ("--surface", "holo_square", "--domain", "0", "0.5", "0", "0.5")
ON_DOMAIN = (("grid", *_ON_DOMAIN), ("isotropy", *_ON_DOMAIN, "--json"),
             ("residuals", *_ON_DOMAIN, "--json"))
# a plane whose diagonal and h^2 overflow a float, though its extents do not
_HUGE = ("--expr", "u, v, 0, 0", "--domain", "-8e307", "8e307", "-8e307", "8e307",
         "--n", "5")
ON_DOMAIN += (("isotropy", *_HUGE, "--json"), ("residuals", *_HUGE))

# refused with exit 2 since --domain and --at are checked
REFUSALS = (
    ("grid", "--surface", "plane", "--n", "5", "--domain", "0", "inf", "0", "1"),
    ("grid", "--surface", "plane", "--n", "5", "--domain", "1", "0", "0", "1"),
    ("isotropy", "--surface", "plane", "--n", "5", "--domain", "0", "1", "1", "1"),
    ("residuals", "--surface", "plane", "--n", "5", "--domain", "0", "nan", "0", "1"),
    ("analyze", "--surface", "plane", "--domain", "0", "inf", "0", "1",
     "--at", "0.1", "0.1"),
    ("analyze", "--surface", "holo_square", "--at", "1.5", "0"),
    # undefined on u = -0.5 and u = 0: the h/2 grid meets (-0.5, -1) first,
    # the h grid (0, -1)
    ("residuals", "--expr", "u, v, 1/(u*(u + 0.5)), 0", "--n", "3"),
    # undefined on u = 0.5, a node of the h/2 grid only
    ("residuals", "--expr", "u, v, 1/(u - 0.5), 0", "--n", "3"),
)
# written with --out over a longer file, on each of these surfaces
TO_FILE = tuple(
    (*command[:1], "--surface", name, *command[1:])
    for name in ("holo_square", "catenoid_E3") for command in (
        ("grid", "--n", "41"), ("grid", "--n", "41", "--format", "csv"),
        ("isotropy", "--json"), ("residuals", "--json")))
_JUNK = b"junk\n" * (1 << 20)  # 5 MiB

# refused at one point by the metric's checks: g11 g22 and g12^2 overflow
# (exit 4); det g underflows to 0, though F_u and F_v are orthogonal (exit 3)
POINT_METRIC = (
    ("analyze", "--expr", "1e80*u, 1e80*(u+v), 0, 0", "--at", "0.5", "0.5"),
    ("analyze", "--expr", "1e-100*u, 1e-100*v, 0, 0", "--at", "0.1", "0.1"),
)

# refused with exit 4 in every format: residuals (a)-(d) and the structure
# residuals overflow to nan or inf
_OVERFLOW = ("--expr", "u, v, 1e160*(u^2 - v^2), 2e160*u*v",
             "--domain", "0", "1e-170", "0", "1e-170")
OVERFLOWS = tuple((command[0], *_OVERFLOW, *command[1:]) for command in (
    ("isotropy", "--n", "3"), ("isotropy", "--n", "5"),
    ("isotropy", "--n", "5", "--json"), ("residuals", "--n", "5"),
    ("residuals", "--n", "5", "--json"), ("grid", "--n", "5"),
    ("grid", "--n", "5", "--format", "csv")))

# refused with exit 2: no n x n grid of this size fits in memory
TOO_LARGE = ("residuals", "--surface", "plane", "--n", "1000000")

# each refusal of the expression parser, with its message and offset
_DEEP = 101  # one level past surface_expr.MAX_DEPTH
PARSER_REFUSALS = tuple(
    ("analyze", "--expr", text, "--at", "0.1", "0.1") for text in (
        "u, v, u + $, 0",                      # unexpected character
        "u, v, 0, u +",                        # unexpected end of input
        "u, v, (u + v, 0",                     # expected ')'
        "u, v, 0, 0 )",                        # trailing input
        "u, v, w, 0",                          # unknown identifier
        "u, v, foo(u), 0",                     # unknown function
        "u, v, sin(), 0",                      # arity: no argument
        "u, v, sin(u, v), 0",                  # arity: two arguments
        "u, v, u^v, 0",                        # non-constant exponent
        "u, v, " + "(" * _DEEP + "u" + ")" * _DEEP + ", 0",
        "u, v, " + "( " * _DEEP + "u" + " )" * _DEEP + ", 0",
        "u, v, " + "sin( " * _DEEP + "u" + " )" * _DEEP + ", 0",
        "u, v, " + "u ^ " * _DEEP + "2, 0",
    ))


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
    yield ("residuals", *surface_args, "--n", "5", "--json")
    for u, v in _points(domain):
        yield ("analyze", *surface_args, "--at", u, v)
    um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    for u, v in ((um, vm), (u0, v0), (u1, v1), (u0, vm), (um, v1)):
        yield ("analyze", *surface_args, "--at", repr(u), repr(v))


def _points(domain):
    """The interior points _POINTS of the domain, as --at arguments."""
    u0, u1, v0, v1 = domain
    return [(f"{u0 + fu * (u1 - u0):.6g}", f"{v0 + fv * (v1 - v0):.6g}")
            for fu, fv in _POINTS]


def _run(main, argv):
    """(exit code, stdout, stderr) of one command; each warning is written
    to its stderr, even where an earlier command raised it already.  An
    exception is the command's outcome, exit "exception" with its class and
    message on stderr, so that one crash does not end a comparison."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def _run_to_file(main, argv, path):
    """_run with --out path, over a file that already holds _JUNK; the file's
    text is returned after stdout and stderr."""
    path.write_bytes(_JUNK)
    return (*_run(main, (*argv, "--out", str(path))),
            path.read_bytes().decode("utf-8"))


def _run_capped(main, argv):
    """_run with this process's address space capped 2 GiB above its present
    size, so that a grid too large for memory is refused at once wherever
    memory is overcommitted."""
    import resource
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * resource.getpagesize() + 2 ** 31
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        return _run(main, argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _surfaces():
    """(surface arguments, SurfaceDef) of each surface that the matrix runs
    its twelve commands on: the catalog, EXPR_SURFACES and the two
    Hoffman-Osserman members."""
    from helpers import HO_DOMAIN, HO_SEED_E2, HO_SEED_E3, hoffman_osserman
    from twistor4.catalog import catalog_entries
    from twistor4.surface_expr import parse_surface

    texts = [(text, domain) for _, text, domain in EXPR_SURFACES]
    texts += [(hoffman_osserman(*coefs), HO_DOMAIN)
              for coefs in (HO_SEED_E3, HO_SEED_E2)]
    return [(("--surface", e.name), e.surface) for e in catalog_entries()] + [
        (("--expr", text, "--domain", *map(repr, domain)),
         parse_surface(text, domain=domain)) for text, domain in texts]


def _program(surface_args, surface):
    """[command, exit code, stdout, stderr] of the `_compile` entry of a
    surface: stdout is the source _compile generates for its components,
    then one line "k<i> = x" per bound object x, a function by its name; an
    exception is the outcome, as in _run."""
    from twistor4 import surface_expr

    sources = []

    def record(text, *args):
        sources.append(text)
        return compile(text, *args)

    command = ["_compile", *surface_args]
    try:
        with mock.patch.object(surface_expr, "compile", record, create=True):
            program = surface_expr._compile(surface.components)
    except Exception as exc:
        return [command, "exception", "", f"{type(exc).__name__}: {exc}\n"]
    bound = [f"{k} = {x.__name__ if callable(x) else repr(x)}"
             for k, x in program.__globals__.items() if re.fullmatch(r"k\d+", k)]
    return [command, 0, "\n".join([*sources, *bound, ""]), ""]


def _outputs(src):
    """[command, exit code, stdout, stderr] for each command of the matrix,
    run on the twistor4 under the directory src, with the text of the file
    after stderr for each command that writes one."""
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "tests"))
    from twistor4 import cli
    from twistor4.catalog import CATALOG

    surfaces = _surfaces()
    ho = [surface_args for surface_args, _ in surfaces[-2:]]
    matrix = [_commands(surface_args, surface.domain)
              for surface_args, surface in surfaces]
    pinned = [("residuals", *surface_args, "--seed-normal", k, "--json")
              for surface_args, branches in ((("--surface", "catenoid_E3"), "2"),
                                             (ho[0], "2"), (ho[1], "12"))
              for k in branches]
    _, graph, graph_domain = EXPR_SURFACES[0]
    pinned += [("analyze", *surface_args, "--at", u, v, "--seed-normal", k)
               for surface_args, domain in (
                   (("--surface", "catenoid_E3"), CATALOG["catenoid_E3"].surface.domain),
                   (("--expr", graph, "--domain", *map(repr, graph_domain)),
                    graph_domain))
               for u, v in _points(domain) for k in "012"]
    with tempfile.TemporaryDirectory() as tmp:
        to_file = [[[*command, "--out", "FILE"],
                    *_run_to_file(cli.main, command, Path(tmp) / "out")]
                   for command in TO_FILE]
    return [[list(command), *_run(cli.main, command)]
            for command in (*(c for commands in matrix for c in commands),
                            *SEED_BRANCHES, *pinned, *ON_DOMAIN, *REFUSALS,
                            *POINT_METRIC, *OVERFLOWS, *PARSER_REFUSALS)
            ] + to_file + [[list(TOO_LARGE), *_run_capped(cli.main, TOO_LARGE)]] + [
                _program(*surface) for surface in surfaces]


_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def _leaves(text, csv_format):
    """(where, leaf) for each leaf of an output: a JSON value other than an
    object or array, a CSV cell, or a token of text, where the text between
    two numbers is one token.  Floats are the numbers compared by value
    (JSON integers, such as a seed branch, are compared exactly)."""
    if csv_format:
        # no field can be longer than the text (csv refuses fields over 128 KiB)
        csv.field_size_limit(max(csv.field_size_limit(), len(text)))
        header, *rows = csv.reader(io.StringIO(text))
        for row in rows:
            for name, cell in zip(header, row):
                try:
                    yield name, float(cell)
                except ValueError:
                    yield name, cell
        return
    try:
        doc = json.loads(text)
    except ValueError:
        for i, token in enumerate(_NUMBER.split(text)):
            yield "text", float(token) if i % 2 else token
        return
    stack = [("", doc)]
    while stack:
        where, x = stack.pop()
        if isinstance(x, dict):
            stack += [(f"{where}.{k}".lstrip("."), y) for k, y in x.items()][::-1]
        elif isinstance(x, list):
            stack += [(f"{where}[{i}]", y) for i, y in enumerate(x)][::-1]
        else:
            yield where, x


def _compare(command, old, new):
    """One line on how the output of command differs between two trees,
    and whether it differs in anything but the values of numbers."""
    (old_code, old_out, old_err, *old_file), (new_code, new_out, new_err,
                                              *new_file) = old, new
    if (old_code, old_err) != (new_code, new_err):
        return f"exit {old_code} -> {new_code}, stderr {old_err!r} -> {new_err!r}", True
    if command[0] == "_compile":
        lines = [text.splitlines() for text in (old_out, new_out)]
        changed = sum(a != b for a, b in zip(*lines))
        return (f"program differs: {len(lines[0])} -> {len(lines[1])} lines, "
                f"{changed} of the first {min(map(len, lines))} changed"), True
    a, b = ([leaf for text in texts if text
             for leaf in _leaves(text, "csv" in command)]
            for texts in ((old_out, *old_file), (new_out, *new_file)))
    if len(a) != len(b):
        return f"{len(a)} -> {len(b)} leaves", True
    differ = signs = 0
    worst, where, tiny = 0.0, "-", 0.0
    for (at, x), (_, y) in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if x == y and math.copysign(1.0, x) == math.copysign(1.0, y):
                continue
            differ += 1
            signs += x == y
            if abs(x) <= 1e-12:
                tiny = max(tiny, abs(x - y))
            elif abs(x - y) / abs(x) > worst:
                worst, where = abs(x - y) / abs(x), at
        elif x != y:
            return f"{at}: {x!r} -> {y!r}", True
    return (f"{differ} numbers differ, {signs} only in the sign of zero; "
            f"relative difference at most {worst:.2g} ({where}), absolute "
            f"at most {tiny:.2g} where |x| <= 1e-12"), False


def _fingerprint(command, code, out, err, *file):
    """The line that fingerprint mode prints for one command's output."""
    return (f"{' '.join(command)} | exit {code} | "
            f"{hashlib.sha256(out.encode()).hexdigest()} | {err!r}"
            + "".join(f" | {hashlib.sha256(x.encode()).hexdigest()}" for x in file))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--outputs"] and len(argv) == 2:  # a child of the comparison
        json.dump(_outputs(argv[1]), sys.stdout)
        return 0
    if len(argv) not in (1, 2) or not all((Path(a) / "twistor4").is_dir() for a in argv):
        print("usage: cli_equivalence.py SRC_DIR [NEW_SRC_DIR]  (each holds twistor4/)",
              file=sys.stderr)
        return 2
    if len(argv) == 1:
        for output in _outputs(argv[0]):
            print(_fingerprint(*output))
        return 0
    old, new = (json.loads(subprocess.run(
        [sys.executable, __file__, "--outputs", src], capture_output=True,
        check=True, text=True).stdout) for src in argv)
    mismatch = False
    for (command, *a), (_, *b) in zip(old, new):
        if a != b:
            line, exact = _compare(command, a, b)
            mismatch |= exact
            print(f"{'MISMATCH: ' if exact else ''}{line} | {' '.join(command)}")
    return int(mismatch)


if __name__ == "__main__":
    sys.exit(main())
