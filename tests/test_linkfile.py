"""Link file parsing, serialization, and bundled fixtures."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polykh import (PolygonalLink, LinkFileError, parse_link, dump_link,
                    load_link, fixture_path, load_fixture)

from conftest import TEXTS, parses_or_rejects

frac = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_parse_basic():
    link = parse_link("# comment\ncomponent 0 0 0  1 0 0  1/2 1 3/4\n")
    assert len(link.components) == 1
    assert link.vertex(3) == (F(1, 2), F(1), F(3, 4))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LinkFileError, match="line 2"):
        parse_link("component 0 0 0 1 0 0 1 1 0\nbogus 1 2 3\n")
    with pytest.raises(LinkFileError, match="line 1"):
        parse_link("component 0 0 0 1 0\n")         # not a multiple of 3
    with pytest.raises(LinkFileError, match="line 1"):
        parse_link("component 3/ 0 0 1 0 0 1 1 0\n")  # malformed rational
    with pytest.raises(LinkFileError):
        parse_link("# nothing here\n")              # no components


@given(TEXTS)
def test_parse_link_fuzz(text):
    parses_or_rejects(parse_link, text)


@given(st.lists(st.lists(st.tuples(frac, frac, frac), min_size=3, max_size=6),
                min_size=1, max_size=3))
def test_dump_parse_round_trip(comps):
    link = PolygonalLink.from_lists(comps)
    assert parse_link(dump_link(link)) == link


def test_fixture_paths_exist():
    for name in ("square", "two_squares", "trefoil9", "whitehead12",
                 "kink5", "riii", "twist12"):
        assert fixture_path(name).exists()
        assert load_fixture(name).n >= 3


def test_load_link_from_path(tmp_path):
    path = tmp_path / "x.link"
    path.write_text(dump_link(load_fixture("square")))
    assert load_link(path) == load_fixture("square")
