"""Fuzz properties of the text-format parser: bad input of any shape
raises :class:`ParseError` (which carries a line number) and nothing
else. The deterministic round trip is pinned in ``test_textfmt.py``."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.textfmt import ParseError, format_system, parse_system

from tests.helpers import small_random_system

#: Fragments of the format, so random text often gets past the
#: keyword check and into block, step and arc handling.
_TOKENS = (
    "schema", "s1:", "s2:", ":", "txn", "T", "S", "end", "seq", "arc",
    "->", "Lx", "Ux", "Ly", "Uy", "A.x", "A.x#1", "A.x#2", "#", "x", "y",
    "L", "U", "A.",
)

token_soup = st.lists(
    st.tuples(
        st.sampled_from(_TOKENS), st.sampled_from((" ", " ", "\n", "  "))
    ),
    max_size=30,
).map(lambda pairs: "".join(tok + sep for tok, sep in pairs))


def _parses_or_parse_error(text: str) -> None:
    try:
        parse_system(text)
    except ParseError:
        pass


class TestParserRaisesOnlyParseError:
    @given(st.one_of(st.text(max_size=200), token_soup))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        _parses_or_parse_error(text)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        unit=st.sampled_from(("token", "line")),
        op=st.sampled_from(("drop", "duplicate", "swap")),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_format_output(self, seed, unit, op, data):
        text = format_system(small_random_system(seed, n_transactions=3))
        # Tokens keep their line breaks as units of their own.
        if unit == "line":
            units, sep = text.splitlines(), "\n"
        else:
            units, sep = re.findall(r"\S+|\n", text), " "
        index = st.integers(min_value=0, max_value=len(units) - 1)
        i, j = data.draw(index), data.draw(index)
        if op == "drop":
            del units[i]
        elif op == "duplicate":
            units.insert(i, units[i])
        else:
            units[i], units[j] = units[j], units[i]
        _parses_or_parse_error(sep.join(units) + "\n")
