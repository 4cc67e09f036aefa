"""Text file format for groups.

Two layouts, with ``#`` comments allowed anywhere:

    perm <degree>        one generator per line in disjoint-cycle
    (0 1 2)(3 4)         notation over 0..degree-1

    table <n>            n rows of n space-separated element indices
    0 1 ...
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import GroupFileError, NotAGroup, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, Group, check_order_cap
from .construct import from_cayley_table, from_permutation_gens

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> dict[int, int]:
    """The points written in disjoint-cycle notation over 0..degree-1, each
    mapped to its image; every other point is fixed."""
    if re.sub(_CYCLE_RE, "", text.replace(" ", "")) not in ("", "()"):
        raise ValueError(f"bad cycle notation {text!r}")
    images: dict[int, int] = {}
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in body.split()]
        for p in points:
            if p < 0 or p >= degree:
                raise ValueError(f"point {p} out of range for degree {degree}")
            if p in images:
                raise ValueError(f"point {p} repeated across cycles")
            images[p] = p
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
    return images


def parse_group_text(
    text: str, label: str = "file", order_cap: int | None = DEFAULT_ORDER_CAP
) -> Group:
    lines = [(i + 1, ln.split("#", 1)[0].strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(n, ln) for n, ln in lines if ln]
    if not lines:
        raise GroupFileError("empty group file")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] not in ("perm", "table"):
        raise GroupFileError("expected header 'perm <degree>' or 'table <n>'", head_no)
    try:
        size = int(parts[1])
    except ValueError:
        raise GroupFileError(f"bad size {parts[1]!r}", head_no) from None
    if size < 1:
        raise GroupFileError("size must be >= 1", head_no)

    if parts[0] == "perm":
        maps = []
        for line_no, ln in lines[1:]:
            try:
                maps.append(parse_cycles(ln, size))
            except ValueError as e:
                raise GroupFileError(str(e), line_no) from None
        # Points no cycle names are fixed by every generator, so the closure
        # runs over the written points only, whatever the declared degree.
        points = sorted(set().union(*maps))
        local = {p: i for i, p in enumerate(points)}
        gens = [tuple(local[m.get(p, p)] for p in points) for m in maps]
        return from_permutation_gens(len(points), gens, label=label, order_cap=order_cap)

    check_order_cap(size, order_cap)  # before reading n^2 entries
    rows = []
    for line_no, ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GroupFileError("table rows must be integers", line_no) from None
        if len(row) != size:
            raise GroupFileError(f"expected {size} entries, got {len(row)}", line_no)
        rows.append(row)
    if len(rows) != size:
        raise GroupFileError(f"expected {size} table rows, got {len(rows)}", lines[0][0])
    return from_cayley_table(rows, label=label, order_cap=order_cap)


def load_group_file(path: str | Path, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """The group in a file; a file that cannot be read or parsed, or whose
    contents are not a group within ``order_cap``, raises GroupFileError
    naming the file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise GroupFileError(f"cannot read {p}: {e.strerror or e}") from None
    try:
        return parse_group_text(text, label=p.stem, order_cap=order_cap)
    except (GroupFileError, NotAGroup, OrderCapExceeded) as e:
        located = GroupFileError(f"{p}: {e}")
        located.line = getattr(e, "line", None)  # a parse error keeps its line
        raise located from None


def dump_group_table(G: Group) -> str:
    """Serialize as a table file; re-ingesting yields an isomorphic group."""
    lines = [f"# {G.label}", f"table {G.order}"]
    for row in G.table:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"
