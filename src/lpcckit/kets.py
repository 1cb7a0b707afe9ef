"""Mini-grammar for kets and PVMs written the way the protocols read.

Vectors: digit strings joined by '+'/'-', one digit per party of the
target group, e.g. "0-1" on a single qutrit or "00+01+02-12" on a 2x3
group. PVM strings: elements separated by ';'; within an element, ','
separates spanning kets (the element is the projector onto their span);
a lone '~' element is the complement of all the others.
"""

from __future__ import annotations

from typing import Sequence

from .exact import Scalar, Vec, ZERO
from .indexing import index_of, total_dim
from .measurements import PVM, Projector, complement


def parse_ket(text: str, dims: Sequence[int]) -> Vec:
    """A signed sum of computational kets over the given local dims."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty ket string")
    if any(d > 10 for d in dims):
        raise ValueError("ket strings support single-digit local indices only")
    out = [ZERO] * total_dim(dims)
    sign = 1
    term = ""

    def flush(term: str, sign: int):
        if not term:
            raise ValueError(f"dangling sign in ket string {text!r}")
        if len(term) != len(dims):
            raise ValueError(
                f"term {term!r} needs one digit per party ({len(dims)} parties)")
        digits = [int(ch) for ch in term]
        for dg, d in zip(digits, dims):
            if dg >= d:
                raise ValueError(f"digit {dg} out of range for dimension {d}")
        i = index_of(digits, dims)
        out[i] = out[i] + Scalar(sign)

    for ch in text:
        if ch == "+":
            flush(term, sign)
            sign, term = 1, ""
        elif ch == "-":
            flush(term, sign)
            sign, term = -1, ""
        elif ch.isdigit():
            term += ch
        else:
            raise ValueError(f"unexpected character {ch!r} in ket string")
    flush(term, sign)
    v = Vec(out)
    if v.is_zero():
        raise ValueError(f"ket string {text!r} sums to zero")
    return v


def parse_pvm(text: str, dims: Sequence[int]) -> PVM:
    """PVM from 'elem;elem;...' with span elements and optional '~'."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty PVM string")
    dim = total_dim(dims)
    elements: list[Projector | None] = []
    tilde_at = None
    for i, part in enumerate(parts):
        if part == "~":
            if tilde_at is not None:
                raise ValueError("at most one '~' element")
            tilde_at = i
            elements.append(None)
            continue
        vecs = [parse_ket(k, dims) for k in part.split(",")]
        elements.append(Projector.from_span(vecs, dim))
    if tilde_at is not None:
        listed = [e for e in elements if e is not None]
        comp = complement(listed, dim)
        # sum |C_ab|^2 - tr C is the sum over i != j of ||P_i P_j||_F^2,
        # and tr C (dim minus the listed ranks, an integer) is C.rank()
        if sum(x.norm2() for row in comp.mat.entries for x in row
               if not x.is_zero()) != comp.rank():
            raise ValueError("elements listed with '~' are not mutually orthogonal")
        elements[tilde_at] = comp
        return PVM._trusted(elements, dim)     # sums to 1 by construction
    return PVM(elements)
