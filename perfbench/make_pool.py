"""Write the fixed pool of systems the ``certify`` workload draws from.

Usage: python3 perfbench/make_pool.py

The pool is data, made once and kept under ``perfbench/pool/``: one
system per line, in the program's JSON format. A ``certify`` run picks
its batch from the pool by ``--seed`` (``workloads.CertifyBatch``), so
its inputs depend on the seed alone, not on the code being measured.

How the pool was made. The exhaustive searches are exponential, so a
few unlucky draws would otherwise dominate a batch. Each small system
of k transactions is kept only when its exhaustive deadlock search
visits a number of states inside the band for k. The band is taken
with the search of the commit that wrote the pool; a later change to
the search does not change the pool, which is the point. Each
ordered-2PL system is kept only when its interaction graph is
complete (every pair shares an entity): Theorem 4 then enumerates
every cycle of that graph, so its cost is the fixed O(k!) constant of
Corollary 4 rather than a property of the draw.

Running this script again rewrites the pool, which changes every
``certify`` input and digest: do it only as a deliberate change of
the benchmark.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL = HERE / "pool"

#: The seed of the one random stream every pool system is drawn from.
POOL_SEED = 20261017

#: Small systems: transaction count -> (systems kept, state band).
SMALL = {2: (60, (0, 300)), 3: (300, (100, 300))}

#: Ordered two-phase-locked systems of 7 transactions kept.
LARGE = 9


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.analysis.exhaustive import SearchBudgetExceeded, find_deadlock
    from repro.io.jsonfmt import system_from_json, system_to_json
    from repro.sim.workload import WorkloadSpec, random_system

    def settles_within(system, states: int) -> bool:
        try:
            find_deadlock(system, max_states=states)
        except SearchBudgetExceeded:
            return False
        return True

    def complete_interaction_graph(system) -> bool:
        return all(
            system.common_entities(i, j)
            for i in range(len(system))
            for j in range(i + 1, len(system))
        )

    def draw(spec, count: int, keep) -> list[str]:
        lines = []
        while len(lines) < count:
            text = system_to_json(random_system(rng, spec), indent=None)
            # Filter the system as a run will load it.
            if keep(system_from_json(text)):
                lines.append(text)
        return lines

    rng = random.Random(POOL_SEED)
    POOL.mkdir(exist_ok=True)
    for k, (count, (low, high)) in SMALL.items():
        spec = WorkloadSpec(
            n_transactions=k, n_entities=6, n_sites=3,
            entities_per_txn=(2, 2), actions_per_entity=(0, 1),
        )
        lines = draw(spec, count, lambda s: (
            not settles_within(s, low) and settles_within(s, high)
        ))
        (POOL / f"small{k}.jsonl").write_text("\n".join(lines) + "\n")
    spec = WorkloadSpec(
        n_transactions=7, n_entities=8, n_sites=4, entities_per_txn=(3, 5),
        actions_per_entity=(0, 1), shape="ordered_2pl",
    )
    lines = draw(spec, LARGE, complete_interaction_graph)
    (POOL / "large7.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
