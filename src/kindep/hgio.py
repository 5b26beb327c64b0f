"""Text serialization for uniform hypergraphs (.hg files).

Layout, one record per line:

    c free-form comment
    p hyp <n> <m> <s>
    e <v1> <v2> ... <vs>

The problem line appears exactly once and is followed by exactly m edge
lines.  Vertex ids are 1-based in the file and 0-based in memory, and
every number is written in ASCII decimal digits: a sign, an underscore
or any other spelling that int() would accept is a non-integer field.
The writer emits edges lexicographically sorted with strictly increasing
ids inside each edge, LF line endings, and no trailing whitespace, so
equal hypergraphs always serialize to identical bytes.  It refuses a
comment that holds a line break, which would read back as more lines
than one.

The reader takes the writer's layout (comment lines first, then the
problem line, then the edge lines with single spaces and LF endings)
as one block: one split tokenizes every edge line at C speed.  Any
other text, and every text with a fault, goes through a loop over the
lines, which reads comments and blank lines anywhere, any padding and
any line endings, and names the line of each fault.
"""

from __future__ import annotations

import os

from kindep.hypergraph import Hypergraph, HypergraphError, _from_int_columns


class HgParseError(HypergraphError):
    """Malformed .hg input; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _decimal(field: str) -> int:
    """The value of a field of ASCII decimal digits; ValueError for any
    other field, even one that int() reads, such as "+1", "1_0" or
    non-ASCII digits."""
    if field.isascii() and field.isdigit():
        return int(field)
    raise ValueError(f"not a decimal field: {field!r}")


class _VertexIds(dict):
    """Memo from an id field's text to its 0-based vertex id.

    A file names each vertex many times, so each distinct field is
    converted once and every edge shares the resulting ints.
    """

    def __missing__(self, field: str) -> int:
        v = self[field] = _decimal(field) - 1
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


# ASCII whitespace other than space and LF; str.splitlines breaks a line
# at every one of these but the tab and \x1f
_FOREIGN_WHITESPACE = "\t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text into a canonical Hypergraph.

    Comment lines and blank lines are skipped.  Out-of-order vertex ids
    within an edge line are tolerated and canonicalized; duplicate ids,
    wrong arity, out-of-range ids, non-decimal ids and duplicate edges
    are errors.

    A text in the writer's layout (comment lines, the problem line, then
    the edge lines with single spaces and LF endings) is read as one
    block by `_parse_block`.  Every other text, and every text the
    block path finds a fault in, goes through `_parse_lines`, which
    raises each error with its line.  Ids and counts are ASCII decimal
    digits only.
    """
    h = _parse_block(text)
    return _parse_lines(text) if h is None else h


def _parse_block(text: str) -> Hypergraph | None:
    """The hypergraph of a faultless text in the writer's layout, or None.

    The layout is ASCII with no whitespace but spaces and LFs: lines
    that start with "c", the problem line "p hyp <n> <m> <s>", then m
    lines "e <v1> ... <vs>" with single spaces; the last LF may be
    missing.  Counts check it whole: the edge block holds m*s spaces,
    m - 1 LFs before its end and no "e" after a space, so each of its
    lines starts with "e"; one split gives m*(s+1) tokens with "e" at
    every (s+1)-th.  The ids then go through the decimal memo, the
    edges are zipped from the flat id list, and the hypergraph is built
    from columns sliced out of it.  Any miss returns None and leaves the
    text, and the diagnosis of any fault, to `_parse_lines`.
    """
    if not text.isascii() or any(c in text for c in _FOREIGN_WHITESPACE):
        return None
    start = 0
    while text.startswith("c", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    end = text.find("\n", start)
    if end < 0:
        end = len(text)
    fields = text[start:end].split(" ")
    if len(fields) != 5 or fields[:2] != ["p", "hyp"]:
        return None
    try:
        n, m, s = map(_decimal, fields[2:])
    except ValueError:
        return None
    if n < 1 or s < 2:
        return None
    block = text[end + 1:]
    if not block:
        return Hypergraph(n, s) if m == 0 else None
    if (block.count(" ") != m * s or " e" in block
            or block.count("\n") != m - 1 + block.endswith("\n")):
        return None
    tokens = block.split()
    del block  # the token list is the peak of a parse: hold nothing else beside it
    step = s + 1
    if len(tokens) != m * step or tokens[::step].count("e") != m:
        return None
    del tokens[::step]
    try:
        ids = list(map(_VertexIds().__getitem__, tokens))
    except ValueError:
        return None
    del tokens
    edges = tuple(zip(*[iter(ids)] * s))  # each run of s ids
    try:
        return _from_int_columns(n, s, edges, [ids[j::s] for j in range(s)])
    except HypergraphError:
        return None


def _parse_lines(text: str) -> Hypergraph:
    """Parse .hg text of any layout line by line, raising the first fault.

    One pass over the lines tokenizes each edge line, converts its ids
    and checks its arity.  Everything else about the edges is left to
    the Hypergraph constructor, whose one linear check accepts a
    canonical edge list without sorting or hashing an edge, and
    canonicalizes any other.  Only when a fault turns up are the edges
    walked again in file order, so that the error names the first
    faulty line exactly as a line-by-line check would.
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
                    n, m, s = map(_decimal, fields[2:])
                except ValueError:
                    raise HgParseError(line_no, f"non-integer field in problem line {line!r}") from None
                if n < 1 or s < 2:
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
    """Serialize to canonical .hg text (terminated by a final LF).

    A comment that holds any character str.splitlines breaks a line at
    raises ValueError: it would read back as more than one line.
    """
    for c in comments:
        if "".join(c.splitlines()) != c:
            raise ValueError(f"comment {c!r} holds a line break")
    lines = [f"c {c}".rstrip() for c in comments]
    lines.append(f"p hyp {h.n} {h.e} {h.s}")
    if h.edges:
        # edges are already canonically sorted on the value itself
        names = [str(v) for v in range(1, h.n + 1)]
        columns = (map(names.__getitem__, col) for col in zip(*h.edges))
        lines += map(("e" + " {}" * h.s).format, *columns)
    return "\n".join(lines) + "\n"


def load_hg(path: str | os.PathLike[str]) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hg(fh.read())


def save_hg(h: Hypergraph, path: str | os.PathLike[str], comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_hg(h, comments))
