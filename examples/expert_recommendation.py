"""Expert recommendation with evolving query patterns — comparing the methods.

The second application the paper motivates: a recommendation service
keeps a pattern describing the kind of expert group a user is after, and
*both* the social graph and the pattern change between queries (the user
refines their request, people join and leave).  The script answers the
same stream of subsequent queries with all four algorithms and reports
query processing time and the amount of work each performed — a
miniature version of the paper's Table XI on a single dataset.

Run with:  python examples/expert_recommendation.py
"""

from __future__ import annotations

import time

from repro.algorithms import EHGPNM, IncGPNM, UAGPNM
from repro.matching.gpnm import gpnm_query
from repro.spl.matrix import SLenMatrix
from repro.workloads.datasets import load_dataset
from repro.workloads.generators import DEFAULT_LABEL_ORDER
from repro.workloads.pattern_gen import PatternSpec, generate_pattern
from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

METHODS = (
    ("UA-GPNM", lambda p, d, **kw: UAGPNM(p, d, use_partition=True, **kw)),
    ("UA-GPNM-NoPar", lambda p, d, **kw: UAGPNM(p, d, use_partition=False, **kw)),
    ("EH-GPNM", EHGPNM),
    ("INC-GPNM", IncGPNM),
)


def main() -> None:
    data = load_dataset("DBLP", scale="quick")
    labels = tuple(label for label in DEFAULT_LABEL_ORDER if label in data.labels())
    pattern = generate_pattern(
        PatternSpec(
            num_nodes=8,
            num_edges=8,
            labels=labels,
            min_bound=2,
            max_bound=3,
            star_probability=0.0,
            respect_label_order=True,
            seed=41,
        )
    )
    # Share one initial-query state across the methods, as the experiment
    # harness does, so only the subsequent queries are compared.
    slen = SLenMatrix.from_graph(data, horizon=4)
    iquery = gpnm_query(pattern, data, slen, enforce_totality=False)
    batch = generate_update_batch(
        data, pattern, UpdateWorkloadSpec(num_pattern_updates=8, num_data_updates=40, seed=3)
    )

    print(
        f"DBLP stand-in: {data.number_of_nodes} nodes / {data.number_of_edges} edges; "
        f"pattern (8, 8); dG = (8, 40)\n"
    )
    print(f"{'method':15s} {'time (ms)':>10s} {'passes':>7s} {'eliminated':>11s}")
    baseline = None
    for name, factory in METHODS:
        engine = factory(pattern, data, precomputed_slen=slen, precomputed_relation=iquery)
        started = time.perf_counter()
        outcome = engine.subsequent_query(batch)
        # Reading the counter builds the deferred elimination analysis;
        # time it with the query, as the paper does.
        eliminated = outcome.stats.eliminated_updates
        elapsed = time.perf_counter() - started
        if baseline is None:
            baseline = outcome.result
        else:
            assert outcome.result == baseline, "methods disagree on the matching result"
        print(
            f"{name:15s} {elapsed * 1000:10.1f} "
            f"{outcome.stats.refinement_passes:7d} {eliminated:11d}"
        )
    print("\nAll four methods returned identical matching results.")


if __name__ == "__main__":
    main()
