"""Known answers and soundness re-checks in plain ``fractions.Fraction``.

Nothing here imports ``lpcckit.exact``: amplitudes are read off lpcckit
objects (``Scalar.re``/``.im``) or JSON quads and then handled as pairs of
Fractions, so a bug in the exact kernel cannot hide itself in the check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

ORACLE_PATH = Path(__file__).with_name("oracle.json")

ZERO = (Fraction(0), Fraction(0))


def load_oracle(path: str | Path | None = None) -> dict:
    with open(path or ORACLE_PATH) as fh:
        return json.load(fh)


def cplx(x) -> tuple[Fraction, Fraction]:
    """A complex Fraction pair from an lpcckit Scalar or a JSON quad
    ``[re_num, re_den, im_num, im_den]``."""
    if isinstance(x, (list, tuple)):
        return Fraction(x[0], x[1]), Fraction(x[2], x[3])
    return Fraction(x.re), Fraction(x.im)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _conj(a):
    return (a[0], -a[1])


def fmt(z) -> str:
    """Canonical text of a complex Fraction pair."""
    re, im = z
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def ray_key(vec) -> tuple[str, ...]:
    """Leading-normalized ray (first nonzero entry 1) as canonical text."""
    entries = [cplx(a) for a in vec]
    lead = next((a for a in entries if a != ZERO), None)
    if lead is None:
        return tuple(fmt(a) for a in entries)
    return tuple(fmt(_div(a, lead)) for a in entries)


def set_key(dims, vectors) -> tuple:
    """Canonical form of a state set up to state order and nonzero scalars:
    dims plus the sorted leading-normalized rays."""
    return (tuple(dims), tuple(sorted(ray_key(v) for v in vectors)))


def _digits(index: int, dims) -> list[int]:
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return out[::-1]


def preserves(dims, states, group, theta) -> bool:
    """True when |theta><theta| on the party group, tensored with the
    identity elsewhere, keeps every pair of the states orthogonal:
    sum_r conj(<theta|psi_i^r>) <theta|psi_j^r> = 0 for all i < j, where
    psi^r is the group-side slice of psi at rest index r."""
    group = tuple(group)
    rest = [p for p in range(len(dims)) if p not in group]
    theta = [cplx(a) for a in theta]
    contractions = []
    for psi in states:
        acc: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
        for flat, amp in enumerate(psi):
            a = cplx(amp)
            if a == ZERO:
                continue
            digits = _digits(flat, dims)
            g = 0
            for p in group:
                g = g * dims[p] + digits[p]
            r = tuple(digits[p] for p in rest)
            t = _mul(_conj(theta[g]), a)
            old = acc.get(r, ZERO)
            acc[r] = (old[0] + t[0], old[1] + t[1])
        contractions.append(acc)
    for i in range(len(contractions)):
        for j in range(i + 1, len(contractions)):
            total = ZERO
            for r, x in contractions[i].items():
                y = contractions[j].get(r)
                if y is not None:
                    t = _mul(_conj(x), y)
                    total = (total[0] + t[0], total[1] + t[1])
            if total != ZERO:
                return False
    return True


def expect_equal(label: str, got, want, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")
