"""Text serialization for uniform hypergraphs (.hg files).

Layout, one record per line:

    c free-form comment
    p hyp <n> <m> <s>
    e <v1> <v2> ... <vs>

The problem line appears exactly once and is followed by exactly m edge
lines.  Vertex ids are 1-based in the file and 0-based in memory.  The
writer emits edges lexicographically sorted with strictly increasing ids
inside each edge, LF line endings, and no trailing whitespace, so equal
hypergraphs always serialize to identical bytes.
"""

from __future__ import annotations

import os

from kindep.hypergraph import Hypergraph, HypergraphError


class HgParseError(HypergraphError):
    """Malformed .hg input; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _VertexIds(dict):
    """Memo from an id field's text to its 0-based vertex id.

    A file names each vertex many times, so each distinct field is
    converted by int() once and every edge shares the resulting ints.
    """

    def __missing__(self, field: str) -> int:
        v = self[field] = int(field) - 1
        return v


def _first_fault(edges: list[tuple[int, ...]], lines: list[str], n: int) -> HgParseError | None:
    """The first edge fault in file order, naming its line: an id outside
    [1, n], a vertex twice in one edge, or an edge that an earlier line
    already gave.  None when the edges have no fault.
    """
    # every line up to the last of these edges parsed, so the edge lines are those tagged "e"
    edge_lines = [no for no, raw in enumerate(lines, 1) if raw.split()[:1] == ["e"]]
    seen: dict[tuple[int, ...], int] = {}
    for edge, line_no in zip(edges, edge_lines):
        for v in edge:
            if not 0 <= v < n:
                return HgParseError(line_no, f"vertex id {v + 1} out of range [1, {n}]")
        edge = tuple(sorted(edge))
        for a, b in zip(edge, edge[1:]):
            if a == b:
                return HgParseError(line_no, f"duplicate vertex {a + 1} within edge")
        if edge in seen:
            return HgParseError(line_no, f"duplicate edge (first at line {seen[edge]})")
        seen[edge] = line_no
    return None


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text into a canonical Hypergraph.

    Comment lines and blank lines are skipped.  Out-of-order vertex ids
    within an edge line are tolerated and canonicalized; duplicate ids,
    wrong arity, out-of-range ids, and duplicate edges are errors.

    One pass over the lines tokenizes each edge line, converts its ids
    and checks its arity.  Everything else about the edges is left to
    the Hypergraph constructor, whose one linear check accepts a
    canonical file (everything `write_hg` writes) without sorting or
    hashing an edge, and canonicalizes any other.  Only when a fault
    turns up are the edges walked again in file order, so that the
    error names the first faulty line exactly as a line-by-line check
    would.
    """
    n = m = s = -1
    header_line = 0
    lines = text.splitlines()
    to_id = _VertexIds().__getitem__
    edges: list[tuple[int, ...]] = []
    try:
        for line_no, raw in enumerate(lines, start=1):
            fields = raw.split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "e":
                if not header_line:
                    raise HgParseError(line_no, "edge line before problem line")
                try:
                    edge = tuple(map(to_id, fields[1:]))
                except ValueError:
                    raise HgParseError(
                        line_no, f"non-integer vertex id in edge line {raw.strip()!r}"
                    ) from None
                if len(edge) != s:
                    raise HgParseError(line_no, f"edge has {len(edge)} vertices, expected {s}")
                edges.append(edge)
            elif tag == "p":
                line = raw.strip()
                if header_line:
                    raise HgParseError(line_no, f"second problem line (first at line {header_line})")
                if len(fields) != 5 or fields[1] != "hyp":
                    raise HgParseError(line_no, f"malformed problem line {line!r}, expected 'p hyp <n> <m> <s>'")
                try:
                    n, m, s = (int(f) for f in fields[2:])
                except ValueError:
                    raise HgParseError(line_no, f"non-integer field in problem line {line!r}") from None
                if n < 1 or m < 0 or s < 2:
                    raise HgParseError(line_no, f"problem line values out of range: n={n} m={m} s={s}")
                header_line = line_no
            elif not tag.startswith("c"):
                raise HgParseError(line_no, f"unrecognized line type {tag!r}")
    except HgParseError as exc:
        # an edge line above this one may hold the first fault
        raise _first_fault(edges, lines, n) or exc from None
    if not header_line:
        raise HgParseError(max(1, len(lines)), "missing problem line")
    try:
        h = Hypergraph(n, s, tuple(edges))
    except HypergraphError as exc:
        raise _first_fault(edges, lines, n) or exc from None
    if len(edges) != m:
        raise HgParseError(header_line, f"problem line announced {m} edges, found {len(edges)}")
    return h


def write_hg(h: Hypergraph, comments: tuple[str, ...] = ()) -> str:
    """Serialize to canonical .hg text (terminated by a final LF)."""
    lines = [f"c {c}".rstrip() for c in comments]
    lines.append(f"p hyp {h.n} {h.e} {h.s}")
    # edges are already canonically sorted on the value itself
    for edge in h.edges:
        lines.append("e " + " ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"


def load_hg(path: str | os.PathLike[str]) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hg(fh.read())


def save_hg(h: Hypergraph, path: str | os.PathLike[str], comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_hg(h, comments))
