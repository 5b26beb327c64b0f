"""Text format round trips and parse diagnostics."""

import pytest

from kindep import Hypergraph, HgParseError, load_hg, parse_hg, save_hg, write_hg
from kindep.generators import gen_complete, gen_random_uniform
from kindep.hgio import _parse_block

GOLDEN = """p hyp 4 4 3
e 1 2 3
e 1 2 4
e 1 3 4
e 2 3 4
"""


def test_write_complete_golden():
    assert write_hg(gen_complete(4, 3)) == GOLDEN


def test_parse_golden():
    h = parse_hg(GOLDEN)
    assert h == gen_complete(4, 3)


def test_round_trip_is_canonical():
    scrambled = "c scrambled input\np hyp 4 4 3\ne 4 3 2\ne 2 1 3\ne 4 2 1\ne 1 4 3\n"
    assert write_hg(parse_hg(scrambled)) == GOLDEN


def test_comments_and_blank_lines():
    text = "c one\n\nc two\np hyp 2 0 2\n\nc trailing\n"
    h = parse_hg(text)
    assert (h.n, h.e, h.s) == (2, 0, 2)


def test_write_with_comments():
    out = write_hg(Hypergraph(2, 2), comments=("made by hand",))
    assert out == "c made by hand\np hyp 2 0 2\n"
    assert not any(line != line.rstrip() for line in out.splitlines())
    assert out.endswith("\n")


@pytest.mark.parametrize("comment", ["made by\nhand", "made by\x0bhand", "trailing\n", "cr\r\nlf",
                                     "form\x0cfeed", "sep\u2028arator"])
def test_write_refuses_a_comment_with_a_line_break(comment):
    # the comment would not read back as the one line it was written as
    with pytest.raises(ValueError, match="line break"):
        write_hg(Hypergraph(2, 2), comments=(comment,))


def test_block_path_takes_exactly_the_writers_layout():
    h = gen_complete(5, 3)
    text = write_hg(h, ("made by hand", ""))
    assert _parse_block(text) == h
    assert _parse_block(text[:-1]) == h
    at = text.index("\ne") + 1
    head, block = text[:at], text[at:]
    for other in (
        head + block.replace(" ", "  "),
        head + block.replace(" ", "\t"),
        head + block.replace("\n", " \n"),
        head + block.replace("\ne", "\n e"),
        head + block.replace("\n", "\r\n"),
        head + block + "\n",
        head + "c between\n" + block,
        head + "\n" + block,
        "\n" + text,
    ):
        assert _parse_block(other) is None
        assert parse_hg(other) == h


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # every count of the edge block fits, but a line does not
        ("p hyp 3 1 2\nx 1 2\n", 2, "unrecognized line type 'x'"),
        ("p hyp 6 3 2\ne 1 2 e\n3 4\ne 5 6\n", 2, "non-integer vertex id in edge line 'e 1 2 e'"),
        ("p hyp 4 2 2\ne 1\n2 \ne 3 4\n", 2, "edge has 1 vertices, expected 2"),
        ("p hyp 4 2 2\ne  1 2\ne 3\n", 3, "edge has 1 vertices, expected 2"),
        ("p hyp 3 1 2\ne 1\x0b2 \n", 2, "edge has 1 vertices, expected 2"),
        ("p hyp 3 1 2\ne 1\u20282 \n", 2, "edge has 1 vertices, expected 2"),
        # ids and counts are ASCII decimal digits, whatever else int() reads
        ("p hyp 3 1 2\ne 1_0 2\n", 2, "non-integer vertex id in edge line 'e 1_0 2'"),
        ("p hyp 3 1 2\ne \u0661 2\n", 2, "non-integer vertex id in edge line 'e \u0661 2'"),
        ("p hyp +3 1 2\ne 1 2\n", 1, "non-integer field in problem line 'p hyp +3 1 2'"),
    ],
)
def test_block_lookalikes_and_non_decimal_ids_fail_on_their_line(text, line_no, message):
    with pytest.raises(HgParseError) as exc_info:
        parse_hg(text)
    assert (exc_info.value.line_no, str(exc_info.value)) == (line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("n, m, s", [(2000, 20000, 3), (4000, 4000, 2)])
def test_parse_inverts_write_at_scale(n, m, s):
    h = gen_random_uniform(n, m, s, 7)
    text = write_hg(h)
    for variant in (text, text.replace("\n", "\r\n"), text[:-1]):
        assert parse_hg(variant) == h


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("e 1 2\np hyp 3 1 2\n", 1),
        ("p hyp 3 1\ne 1 2\n", 1),
        ("p hyp 0 0 2\n", 1),
        ("p hyp 3 1 2\np hyp 3 1 2\ne 1 2\n", 2),
        ("p hyp 3 1 2\ne 1 2 3\n", 2),
        ("p hyp 3 1 3\ne 1 2 2\n", 2),
        ("p hyp 3 1 2\ne 1 4\n", 2),
        ("p hyp 3 1 2\ne 0 1\n", 2),
        ("p hyp 3 2 2\ne 1 2\ne 2 1\n", 3),
        ("p hyp 3 1 2\ne 1 2\nwhat is this\n", 3),
        ("p hyp 3 1 2\ne +1 2\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(HgParseError) as exc_info:
        parse_hg(text)
    assert exc_info.value.line_no == line_no
    assert f"line {line_no}" in str(exc_info.value)


def test_missing_header():
    with pytest.raises(HgParseError):
        parse_hg("c nothing here\n")


def test_edge_count_mismatch():
    with pytest.raises(HgParseError):
        parse_hg("p hyp 3 2 2\ne 1 2\n")


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("c nothing here\n", 1),
        ("", 1),
        ("c one\n\nc three\n", 3),
        ("c one\nc two", 2),
    ],
)
def test_missing_header_names_the_last_line(text, line_no):
    with pytest.raises(HgParseError, match="missing problem line") as exc_info:
        parse_hg(text)
    assert exc_info.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("p hyp 3 2 2\ne 1 2\n", 1),
        ("c header below\np hyp 3 1 2\ne 1 2\ne 2 3\n\n", 2),
        ("c made by hand\n\np hyp 3 1 2\n", 3),
    ],
)
def test_edge_count_mismatch_names_the_problem_line(text, line_no):
    with pytest.raises(HgParseError, match="problem line announced") as exc_info:
        parse_hg(text)
    assert exc_info.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no, first",
    [
        ("p hyp 4 3 2\ne 1 2\ne 1 3\ne 1 3\n", 4, 3),
        ("p hyp 4 3 2\ne 1 2\nc gap\ne 1 3\ne 2 1\n", 5, 2),
        ("p hyp 4 3 2\ne 2 3\ne 1 2\ne 3 2\n", 4, 2),
    ],
)
def test_duplicate_edge_names_its_first_line(text, line_no, first):
    with pytest.raises(HgParseError, match=f"duplicate edge \\(first at line {first}\\)") as exc_info:
        parse_hg(text)
    assert exc_info.value.line_no == line_no


def test_file_round_trip(tmp_path):
    h = gen_complete(5, 3)
    path = tmp_path / "k5.hg"
    save_hg(h, path, comments=("complete 3-uniform on 5 vertices",))
    assert load_hg(path) == h
    raw = path.read_bytes()
    assert raw.startswith(b"c complete")
    assert b"\r" not in raw
