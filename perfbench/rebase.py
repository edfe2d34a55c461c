"""Seeded dense inputs for the ``dense-analyze`` workload.

Each base algebra file (the ``lieq`` JSON format: sparse ``[index, "p/q"]``
bracket values) is rewritten in a new basis ``f_j = sum_a P[a][j] e_a``.
The new structure constants are ``P^-1 [f_i, f_j]``, which are dense and
rational.

``P = R M C``: ``M`` is one of a few integer matrices with entries in
{-1, 0, 1}, drawn once from a fixed stream (singular draws are rejected) and
the same for every seed; ``R`` and ``C`` are diagonal sign matrices drawn
from the seed.  Fresh ``M`` per seed made the cost of one ``analyze`` vary
2x between seeds, which buried any change of the code in the choice of
seed.  Sign flips keep the magnitudes of ``P`` and so the work per input,
while still giving every seed its own structure constants.

This module uses only the standard library (``fractions``), so neither the
time to make the inputs nor their correctness depends on the code under
test.  A change of basis keeps every basis-independent invariant that
``lieq analyze`` reports, so the expected answers of the base algebra hold
for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def load_table(path: str) -> tuple[int, dict[tuple[int, int], list[Fraction]]]:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["dim"]
    table = {}
    for rec in doc["brackets"]:
        vec = [Fraction(0)] * n
        for k, s in rec["value"]:
            vec[k] = Fraction(s)
        table[(rec["i"], rec["j"])] = vec
    return n, table


def inverse(p: list[list[int]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Q, or None when p is singular."""
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        pr = next((r for r in range(c, n) if a[r][c]), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def draw_basis(n: int, rng: random.Random) -> list[list[int]]:
    while True:
        p = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if inverse(p) is not None:
            return p


def fixed_bases(n: int, count: int) -> list[list[list[int]]]:
    """The matrices ``M``: the first ``count`` non-singular draws of a fixed stream."""
    rng = random.Random(f"perfbench-dense-bases:{n}")
    return [draw_basis(n, rng) for _ in range(count)]


def flip_signs(m: list[list[int]], rng: random.Random) -> list[list[int]]:
    """``R m C`` for diagonal sign matrices ``R`` and ``C`` drawn from ``rng``."""
    n = len(m)
    rows = [rng.choice((-1, 1)) for _ in range(n)]
    cols = [rng.choice((-1, 1)) for _ in range(n)]
    return [[rows[a] * m[a][j] * cols[j] for j in range(n)] for a in range(n)]


def rebase(n: int, table: dict, p: list[list[int]], pinv: list[list[Fraction]]) -> dict:
    def bracket(x, y):
        out = [Fraction(0)] * n
        for (i, j), v in table.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, vk in enumerate(v):
                    if vk:
                        out[k] += c * vk
        return out

    cols = [[p[a][j] for a in range(n)] for j in range(n)]
    new = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(cols[i], cols[j])
            coords = [sum(pinv[k][a] * w[a] for a in range(n)) for k in range(n)]
            if any(coords):
                new[(i, j)] = coords
    return new


def q_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dumps_algebra(n: int, table: dict) -> str:
    brackets = [
        {"i": i, "j": j, "value": [[k, q_str(x)] for k, x in enumerate(v) if x]}
        for (i, j), v in sorted(table.items())
    ]
    doc = {"dim": n, "labels": [f"f{k + 1}" for k in range(n)], "brackets": brackets}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rebased_texts(base_path: str, count: int, rng: random.Random) -> list[str]:
    """``count`` rebased copies of the base file, one per matrix ``M``."""
    n, table = load_table(base_path)
    texts = []
    for m in fixed_bases(n, count):
        p = flip_signs(m, rng)
        texts.append(dumps_algebra(n, rebase(n, table, p, inverse(p))))
    return texts
