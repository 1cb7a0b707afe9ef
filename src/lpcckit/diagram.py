"""Block-structure occupancy grids for (effectively) bipartite sets.

Rows index the first block's basis, columns the second block's; a cell
lists the states with weight there. The pictures match the paper-style
grid drawings of these families once the partition is merged.
"""

from __future__ import annotations

from .indexing import digits_of
from .statesets import Partition, StateSet, merge_parties


def occupancy(s: StateSet) -> list[list[list[str]]]:
    """cells[r][c] = labels of states with a nonzero amplitude at (r, c);
    the set must be bipartite (merge first)."""
    if s.spec.n_parties != 2:
        raise ValueError("occupancy grid needs exactly two (merged) parties")
    rows, cols = s.spec.dims
    cells: list[list[list[str]]] = [[[] for _ in range(cols)] for _ in range(rows)]
    for label, v in s.states:
        for i, amp in enumerate(v.entries):
            if not amp.is_zero():
                r, c = digits_of(i, s.spec.dims)
                cells[r][c].append(label)
    return cells


def _merged(s: StateSet, p: Partition | None) -> StateSet:
    if p is None:
        if s.spec.n_parties == 2:
            return s
        raise ValueError("a partition with two blocks is required")
    if p.n_blocks != 2:
        raise ValueError("diagram needs a two-block partition")
    return merge_parties(s, p)


def render_ascii(s: StateSet, p: Partition | None = None) -> str:
    """Plain-text occupancy grid; empty cells stay blank."""
    m = _merged(s, p)
    cells = occupancy(m)
    rows, cols = m.spec.dims
    texts = [[",".join(cells[r][c]) for c in range(cols)] for r in range(rows)]
    width = max(3, max((len(t) for row in texts for t in row), default=3))
    header = "     " + " ".join(f"{c:^{width}}" for c in range(cols))
    sep = "    +" + "+".join("-" * width for _ in range(cols)) + "+"
    lines = [f"{m.provenance}  [{m.spec.labels[0]} rows x {m.spec.labels[1]} cols]",
             header, sep]
    for r in range(rows):
        body = "|".join(f"{texts[r][c]:^{width}}" for c in range(cols))
        lines.append(f"{r:>3} |{body}|")
        lines.append(sep)
    return "\n".join(lines)


def render_svg(s: StateSet, p: Partition | None = None) -> str:
    """Minimal SVG rendering of the same grid, 48 pixels to a cell."""
    cell = 48
    m = _merged(s, p)
    cells = occupancy(m)
    rows, cols = m.spec.dims
    w, h = cols * cell + 40, rows * cell + 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<text x="8" y="16" font-size="12">{m.provenance}</text>']
    for r in range(rows + 1):
        y = 30 + r * cell
        parts.append(f'<line x1="30" y1="{y}" x2="{30 + cols * cell}" y2="{y}" '
                     f'stroke="black"/>')
    for c in range(cols + 1):
        x = 30 + c * cell
        parts.append(f'<line x1="{x}" y1="30" x2="{x}" y2="{30 + rows * cell}" '
                     f'stroke="black"/>')
    for r in range(rows):
        for c in range(cols):
            if cells[r][c]:
                x, y = 30 + c * cell, 30 + r * cell
                parts.append(
                    f'<rect x="{x + 1}" y="{y + 1}" width="{cell - 2}" '
                    f'height="{cell - 2}" fill="#8fb4e3" fill-opacity="0.5"/>')
                label = ",".join(cells[r][c])
                parts.append(f'<text x="{x + 4}" y="{y + cell // 2}" '
                             f'font-size="9">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
