"""Compare the expression parsers of two trees on random and nested text.

Usage:
    python3 tools/parser_equivalence.py OLD_SRC NEW_SRC [--count N] [--seed S]

Each SRC is the `src/` directory of a checkout.  The corpus is N strings
drawn from numbers, names, operators, brackets, commas and whitespace
(Unicode digits and spaces included), N / 5 well-formed expressions and
surfaces, 30 % of them with one character replaced, and a deep-nesting
corpus: brackets, unary minus, exponents, calls, sums and products 98 to
150 levels deep, with no space, one space, or a space and a tab after each
opening bracket and operator.
Each string goes through `parse` and `parse_surface` of each tree, in a
child process per tree.  An outcome is the printed trees of the components
and which of their powers and calls are one shared object, or the
exception's class, message and offset.  Prints the number of strings and of
differing outcomes, then the first differences; exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

_ATOMS = ("u", "v", "pi", "e", "1", "2", "0.5", "3.", ".25", "1e3", "2E-2",
          "1e+", "12.5e-3", "x", "foo", "sin", "cos", "sqrt", "log", "exp",
          "tan", "atan", "sinh", "cosh", "_a", "u2", "e1", "\u0663", "\u00b2",
          "\u00e9", "$", "#", ".", "..", "'")
_OPERATORS = ("+", "-", "*", "/", "^", "(", ")", ",", " ", "  ", "\t", "\n",
              " ", " ", "\x1c")


def corpus(count: int, seed: int) -> list:
    rng = random.Random(seed)
    texts = ["".join(rng.choice(_ATOMS if rng.random() < 0.45 else _OPERATORS)
                     for _ in range(rng.randint(0, 14))) for _ in range(count)]

    def expr(depth):
        r = rng.random()
        if depth > 4 or r < 0.3:
            return rng.choice(("u", "v", "2", "0.5", "pi", "e", "1e-3"))
        if r < 0.5:
            return f"{expr(depth + 1)} {rng.choice('+-*/')} {expr(depth + 1)}"
        if r < 0.6:
            return f"-{expr(depth + 1)}"
        if r < 0.75:
            return f"{rng.choice(('sin', 'exp', 'sqrt', 'bar'))}({expr(depth + 1)})"
        if r < 0.85:
            exponent = rng.choice(("2", "3", "-1", "0.5", "u", "(1/0)", "2*3"))
            return f"({expr(depth + 1)})^{exponent}"
        return f"({expr(depth + 1)})"

    for _ in range(count // 5):
        text = ", ".join(expr(0) for _ in range(rng.choice((1, 4, 4, 5))))
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.3:
            text = text[:i] + rng.choice(_ATOMS + _OPERATORS) + text[i + 1:]
        texts.append(text)
    for n in (98, 99, 100, 101, 102, 150):
        for s in ("", " ", " \t"):
            texts += [
                f"({s}" * n + "u" + f"{s})" * n,
                f"({s}" * n + "u" + f"{s})" * (n - 1),
                f"({s}-{s}" * n + "u" + f"{s})" * n,
                f"-{s}" * n + "u",
                f"u{s}^{s}" * n + "2",
                f"2{s}^{s}-{s}" * n + "2",
                f"sin({s}" * n + "u" + f"{s})" * n,
                f"sin{s}({s}" * n + "u" + f"{s})" * n,
                f"u{s}+{s}" * n + "v",
                f"u{s}*{s}" * n + "v",
                "u, v, " + f"({s}" * n + "u" + f"{s})" * n + ", 0",
            ]
    return texts


def _outcomes(src):
    """One outcome per line of the JSON list on stdin, for parse and
    parse_surface of the twistor4 under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    from twistor4.surface_expr import Call, Pow, expr_text, parse, parse_surface

    def sharing(nodes):
        first, seen, stack = [], {}, list(nodes)[::-1]
        while stack:
            node = stack.pop()
            if isinstance(node, (Pow, Call)):
                first.append(seen.setdefault(id(node), len(seen)))
            stack += [x for x in vars(node).values()
                      if not isinstance(x, (str, float))][::-1]
        return first

    def outcome(fn, text):
        try:
            result = fn(text)
        except Exception as exc:  # every class is an outcome to compare
            return [type(exc).__name__, str(exc), getattr(exc, "position", None)]
        nodes = getattr(result, "components", (result,))
        return [[expr_text(x) for x in nodes], sharing(nodes)]

    for text in json.load(sys.stdin):
        print(json.dumps([outcome(parse, text), outcome(parse_surface, text)]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--outcomes"] and len(argv) == 2:  # a child of the comparison
        _outcomes(argv[1])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--count", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=14)
    args = ap.parse_args(argv)
    texts = corpus(args.count, args.seed)
    old, new = (subprocess.run(
        [sys.executable, __file__, "--outcomes", src], input=json.dumps(texts),
        capture_output=True, check=True, text=True).stdout.splitlines()
        for src in (args.old_src, args.new_src))
    differ = [(t, a, b) for t, a, b in zip(texts, old, new) if a != b]
    print(f"{len(texts)} strings, {len(differ)} differ")
    for text, a, b in differ[:10]:
        print(f"{text[:60]!r}\n  old {a[:200]}\n  new {b[:200]}")
    return int(bool(differ) or len(old) != len(texts) or len(new) != len(texts))


if __name__ == "__main__":
    sys.exit(main())
