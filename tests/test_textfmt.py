"""Tests for the text format (repro.io.textfmt)."""

import pytest

from repro.io.textfmt import ParseError, format_system, parse_system

EXAMPLE = """
# Figure-1-like system
schema site1: x y
schema site2: z

txn T1
  seq Lx Ux Ly Uy
  seq Lz Uz
  arc Ly -> Lz
  arc Lz -> Uy
end

txn T2
  seq Lx Ly Uy Ux
end
"""


class TestParse:
    def test_example(self):
        system = parse_system(EXAMPLE)
        assert len(system) == 2
        assert system.schema.site_of("x") == "site1"
        assert system.schema.site_of("z") == "site2"
        t1 = system[0]
        assert t1.precedes(t1.lock_node("z"), t1.unlock_node("y"))

    def test_default_placement(self):
        system = parse_system("txn T\n  seq Lq Uq\nend\n")
        assert system.schema.site_of("q") == "site[q]"

    def test_comments_and_blank_lines(self):
        system = parse_system(
            "# top\n\ntxn T # named T\n  seq Lx Ux\nend\n"
        )
        assert system[0].name == "T"

    def test_actions_with_occurrence_index(self):
        text = (
            "txn T\n"
            "  seq Lx A.x A.x Ux\n"
            "  arc A.x#1 -> A.x#2\n"
            "end\n"
        )
        system = parse_system(text)
        assert len(system[0].action_nodes("x")) == 2

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ("txn T\n  seq Lx Ux\n", "not closed"),
            ("end\n", "outside"),
            ("txn T\ntxn S\n", "nested"),
            ("txn T\n  seq Lx Ux\n  arc Lq -> Ux\nend\n", "unknown step"),
            ("schema : x\ntxn T\n  seq Lx Ux\nend\n", "expected"),
            ("txn T\n  bogus Lx\nend\n", "unknown keyword"),
            ("txn T\n  arc Lx Ux\nend\n", "expected 'arc"),
            ("arc Lx -> Ux\n", "outside txn"),
            ("schema s1: x\nschema s2: x\n", "two sites"),
            ("txn T\n  seq Lx A.x A.x Ux\n  arc A.x -> Ux\nend\n",
             "ambiguous"),
            ("txn T\n  seq Lx A.x A.x Ux\n  arc A.x#7 -> Ux\nend\n",
             "occurrence"),
            ("", "no transactions"),
            ("txn T\n  seq Lx Lx Ux\nend\n", "line 1: T: two Lock"),
            ("txn S\n  seq Ly Uy\nend\ntxn T\n  seq Ux Lx\nend\n",
             "line 4: T: Lx does not precede Ux"),
            ("txn T\n  seq Lx Ux\n  arc Ux -> Lx\nend\n",
             "line 1: T: precedence arcs invalid"),
            ("txn T\n  seq Lx Ux\nend\ntxn T\n  seq Ly Uy\nend\n",
             "line 4: duplicate txn 'T'"),
            ("schema s1: x\ntxn S\n  seq Lx Ux\nend\n"
             "txn T\n  seq Lx Ux Ly Uy\nend\n",
             "line 5: T: entity 'y' is on no schema line"),
        ],
    )
    def test_errors(self, bad, fragment):
        with pytest.raises(ParseError) as info:
            parse_system(bad)
        assert fragment in str(info.value)

    def test_arc_inside_needs_block(self):
        with pytest.raises(ParseError):
            parse_system("arc Lx -> Ux\n")


class TestRoundTrip:
    def test_example_roundtrip(self):
        system = parse_system(EXAMPLE)
        text = format_system(system)
        reparsed = parse_system(text)
        assert len(reparsed) == len(system)
        for a, b in zip(system.transactions, reparsed.transactions):
            assert a.name == b.name
            assert a.entities == b.entities
            # same partial order on the Lock/Unlock labels
            assert _label_order(a) == _label_order(b)

    def test_figures_roundtrip(self):
        from repro.paper import figures

        for system in (
            figures.figure1(),
            figures.figure2(),
            figures.figure3(),
        ):
            reparsed = parse_system(format_system(system))
            for a, b in zip(system.transactions, reparsed.transactions):
                assert _label_order(a) == _label_order(b)

    def test_random_systems_roundtrip(self):
        from tests.helpers import small_random_system

        for seed in range(20):
            system = small_random_system(seed, n_transactions=3)
            reparsed = parse_system(format_system(system))
            for a, b in zip(system.transactions, reparsed.transactions):
                assert _label_order(a) == _label_order(b), f"seed {seed}"


def _label_order(transaction) -> set[tuple[str, str]]:
    """The strict order on node labels (labels are unique per L/U)."""
    pairs = set()
    for u, v in transaction.dag.transitive_closure_arcs():
        pairs.add((str(transaction.ops[u]), str(transaction.ops[v])))
    return pairs
