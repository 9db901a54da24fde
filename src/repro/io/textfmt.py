"""A small line-oriented text format for transaction systems.

Example::

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

Rules:

* ``schema SITE: ENTITY...`` lines define the placement. A file with
  at least one schema line must declare every entity its transactions
  lock; a file with none places each entity at a site of its own;
* each ``txn NAME ... end`` block lists ``seq`` chains (each a total
  order of steps) and extra ``arc A -> B`` precedences;
* a step is referenced by its label: ``Lx``, ``Ux``, ``A.x``; when the
  same action label occurs several times, suffix the occurrence index:
  ``A.x#2`` is the second ``A.x`` in the block's definition order.
* ``#`` begins a comment when it starts a line or follows whitespace
  (so ``A.x#2`` is never a comment); blank lines are ignored.
"""

from __future__ import annotations

from repro.core.entity import DatabaseSchema
from repro.core.operations import Operation, OpKind
from repro.core.system import TransactionSystem
from repro.core.transaction import MalformedTransactionError, Transaction

__all__ = ["ParseError", "format_system", "parse_system"]


class ParseError(ValueError):
    """Malformed text-format input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _strip_comment(raw: str) -> str:
    """Drop a trailing comment.

    ``#`` starts a comment only at the beginning of a line or after
    whitespace; a ``#`` glued to a token is an occurrence index
    (``A.x#2``).
    """
    if raw.lstrip().startswith("#"):
        return ""
    for index in range(len(raw)):
        if raw[index] == "#" and index > 0 and raw[index - 1].isspace():
            return raw[:index]
    return raw


class _TxnBlock:
    """Accumulates one transaction's ops and arcs during parsing."""

    def __init__(self, name: str, line_no: int):
        self.name = name
        self.line_no = line_no  # of the block's ``txn`` line
        self.ops: list[Operation] = []
        self.arcs: list[tuple[int, int]] = []
        self._label_nodes: dict[str, list[int]] = {}

    def add_op(self, text: str, line_no: int) -> int:
        try:
            op = Operation.parse(text)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        node = len(self.ops)
        self.ops.append(op)
        self._label_nodes.setdefault(str(op), []).append(node)
        return node

    def resolve(self, label: str, line_no: int) -> int:
        base, _, index_text = label.partition("#")
        nodes = self._label_nodes.get(base)
        if not nodes:
            raise ParseError(
                line_no, f"unknown step {base!r} in txn {self.name!r}"
            )
        if index_text:
            try:
                index = int(index_text)
            except ValueError:
                raise ParseError(
                    line_no, f"bad occurrence index in {label!r}"
                ) from None
            if not 1 <= index <= len(nodes):
                raise ParseError(
                    line_no,
                    f"{base!r} has {len(nodes)} occurrence(s), "
                    f"requested #{index}",
                )
            return nodes[index - 1]
        if len(nodes) > 1:
            raise ParseError(
                line_no,
                f"step {base!r} is ambiguous ({len(nodes)} occurrences); "
                f"use {base}#k",
            )
        return nodes[0]


def parse_system(text: str) -> TransactionSystem:
    """Parse the text format into a :class:`TransactionSystem`.

    Raises:
        ParseError: with the offending line number, on malformed input.
    """
    placement: dict[str, str] = {}
    blocks: list[_TxnBlock] = []
    names: set[str] = set()
    current: _TxnBlock | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "schema":
            if current is not None:
                raise ParseError(line_no, "schema inside txn block")
            rest = line[len("schema"):].strip()
            site, _, entity_text = rest.partition(":")
            site = site.strip()
            entities = entity_text.split()
            if not site or not entities:
                raise ParseError(
                    line_no, "expected 'schema SITE: ENTITY...'"
                )
            for entity in entities:
                if placement.get(entity, site) != site:
                    raise ParseError(
                        line_no, f"entity {entity!r} placed at two sites"
                    )
                placement[entity] = site
        elif keyword == "txn":
            if current is not None:
                raise ParseError(line_no, "nested txn block")
            if len(tokens) != 2:
                raise ParseError(line_no, "expected 'txn NAME'")
            if tokens[1] in names:
                raise ParseError(line_no, f"duplicate txn {tokens[1]!r}")
            names.add(tokens[1])
            current = _TxnBlock(tokens[1], line_no)
        elif keyword == "end":
            if current is None:
                raise ParseError(line_no, "'end' outside txn block")
            blocks.append(current)
            current = None
        elif keyword == "seq":
            if current is None:
                raise ParseError(line_no, "'seq' outside txn block")
            nodes = [current.add_op(tok, line_no) for tok in tokens[1:]]
            current.arcs.extend(zip(nodes, nodes[1:]))
        elif keyword == "arc":
            if current is None:
                raise ParseError(line_no, "'arc' outside txn block")
            rest = " ".join(tokens[1:])
            left, arrow, right = rest.partition("->")
            if not arrow:
                raise ParseError(line_no, "expected 'arc A -> B'")
            u = current.resolve(left.strip(), line_no)
            v = current.resolve(right.strip(), line_no)
            current.arcs.append((u, v))
        else:
            raise ParseError(line_no, f"unknown keyword {keyword!r}")

    if current is not None:
        raise ParseError(
            len(text.splitlines()), f"txn {current.name!r} not closed"
        )
    if not blocks:
        raise ParseError(1, "no transactions defined")

    if placement:
        for block in blocks:
            for op in block.ops:
                if op.entity not in placement:
                    raise ParseError(
                        block.line_no,
                        f"{block.name}: entity {op.entity!r} is on no "
                        "schema line",
                    )
    mentioned = {op.entity for block in blocks for op in block.ops}
    for entity in sorted(mentioned - set(placement)):
        placement[entity] = f"site[{entity}]"
    schema = DatabaseSchema(placement)
    transactions = []
    for block in blocks:
        try:
            transactions.append(
                Transaction(block.name, block.ops, block.arcs, schema)
            )
        except MalformedTransactionError as exc:
            raise ParseError(block.line_no, str(exc)) from exc
    return TransactionSystem(transactions)


def _node_label(transaction: Transaction, node: int) -> str:
    """The textual reference of a node, with #k disambiguation."""
    op = transaction.ops[node]
    base = str(op)
    same = [
        u for u, other in enumerate(transaction.ops) if str(other) == base
    ]
    if len(same) == 1:
        return base
    return f"{base}#{same.index(node) + 1}"


def format_system(system: TransactionSystem) -> str:
    """Serialize a system to the text format (round-trips through
    :func:`parse_system` up to node renumbering)."""
    lines: list[str] = []
    by_site: dict[str, list[str]] = {}
    for entity in sorted(system.entities):
        by_site.setdefault(system.schema.site_of(entity), []).append(entity)
    for site in sorted(by_site):
        lines.append(f"schema {site}: {' '.join(sorted(by_site[site]))}")
    for transaction in system.transactions:
        lines.append("")
        lines.append(f"txn {transaction.name}")
        covered: set[tuple[int, int]] = set()
        for site in sorted(transaction.sites_touched()):
            nodes = transaction.nodes_at_site(site)
            labels = " ".join(_node_label(transaction, u) for u in nodes)
            lines.append(f"  seq {labels}")
            covered.update(zip(nodes, nodes[1:]))
        hasse = transaction.dag.transitive_reduction()
        closure_of_chains = _chain_closure(transaction, covered)
        for u, v in sorted(hasse.arcs):
            if (u, v) not in closure_of_chains:
                lines.append(
                    f"  arc {_node_label(transaction, u)} -> "
                    f"{_node_label(transaction, v)}"
                )
        lines.append("end")
    return "\n".join(lines) + "\n"


def _chain_closure(
    transaction: Transaction, chain_arcs: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Transitive closure of the per-site chain arcs."""
    from repro.util.dag import Dag

    dag = Dag(transaction.node_count, chain_arcs)
    return set(dag.transitive_closure_arcs())
