"""The deferred elimination analysis equals an eager one on the batch's own state.

UA-GPNM and EH-GPNM build DER-I/II/III and the EH-Tree only when
``SubsequentResult.eh_tree`` or the elimination counters are first read.
These tests read them only *after* a second batch has moved ``SLen``, and
compare against ``detect_all`` + ``EHTree.build`` run eagerly on the first
batch's pre- and post-batch state (Example 10: Type I, II and III).
"""

import gc

import pytest

import repro.algorithms.ua_gpnm as ua_gpnm_module
from repro import paper_example
from repro.algorithms import EHGPNM, UAGPNM
from repro.elimination.detector import EliminationAnalysis, detect_all, detect_type_ii
from repro.elimination.eh_tree import EHTree
from repro.elimination.relations import EliminationType
from repro.graph.updates import delete_data_edge
from repro.matching.affected import affected_set_from_delta
from repro.matching.candidates import candidate_set
from repro.matching.gpnm import gpnm_query
from repro.spl.incremental import update_slen
from repro.spl.matrix import SLenMatrix


def eager_analysis(engine_class, data, pattern, batch):
    """``(analysis, tree)`` built eagerly from the batch's own state."""
    slen = SLenMatrix.from_graph(data)
    relation = gpnm_query(pattern, data, slen, enforce_totality=False)
    candidates = [
        candidate_set(update, pattern, data, slen, relation)
        for update in batch.pattern_updates()
    ]
    data_after = data.copy()
    affected = []
    for update in batch.data_updates():
        update.apply(data_after)
        affected.append(affected_set_from_delta(update, update_slen(slen, data_after, update)))
    if engine_class is EHGPNM:
        analysis = EliminationAnalysis(affected_sets=affected, relations=detect_type_ii(affected))
        return analysis, EHTree.build(analysis, batch.data_updates())
    analysis = detect_all(candidates, affected, slen)
    return analysis, EHTree.build(analysis, list(batch))


@pytest.mark.parametrize("engine_class", [UAGPNM, EHGPNM])
def test_analysis_read_after_a_later_batch_equals_the_eager_one(
    engine_class, figure1_data, figure1_pattern
):
    batch = paper_example.example2_updates()
    expected_analysis, expected_tree = eager_analysis(
        engine_class, figure1_data, figure1_pattern, batch
    )
    engine = engine_class(figure1_pattern, figure1_data)
    outcome = engine.subsequent_query(batch)
    slen_after_first = engine.slen

    # Undo UD1 before reading anything: PM2 no longer reaches TE2 within 2,
    # so a DER-III check against the live SLen would lose UD1 ⊵ UP1.
    engine.subsequent_query([delete_data_edge("SE1", "TE2")])
    assert engine.slen != slen_after_first

    assert outcome.stats.eliminated_updates == expected_tree.number_of_eliminated
    assert outcome.stats.elimination_relations == len(expected_analysis.relations)
    assert outcome.stats.as_dict()["eliminated_updates"] == expected_tree.number_of_eliminated
    assert outcome.stats.elimination.analysis.relations == expected_analysis.relations
    assert outcome.eh_tree.to_ascii() == expected_tree.to_ascii()
    assert outcome.eh_tree.eliminated_updates() == expected_tree.eliminated_updates()
    if engine_class is UAGPNM:
        # Example 10 holds all three relationship types.
        assert {relation.type for relation in expected_analysis.relations} == set(EliminationType)
        assert outcome.stats.eliminated_updates == 3


def test_analysis_and_tree_are_built_once(figure1_data, figure1_pattern, monkeypatch):
    calls = []
    inner = ua_gpnm_module.detect_all

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(ua_gpnm_module, "detect_all", counted)
    outcome = UAGPNM(figure1_pattern, figure1_data).subsequent_query(
        paper_example.example2_updates()
    )
    assert calls == []
    tree = outcome.eh_tree
    outcome.stats.as_dict()
    assert outcome.eh_tree is tree
    assert len(calls) == 1


def test_only_pattern_edge_insertions_freeze_slen(figure1_data, figure1_pattern, monkeypatch):
    forks = []
    original_fork = SLenMatrix.fork

    def counted_fork(matrix):
        forks.append(matrix)
        return original_fork(matrix)

    monkeypatch.setattr(SLenMatrix, "fork", counted_fork)
    engine = UAGPNM(figure1_pattern, figure1_data)
    batch = paper_example.example2_updates()
    engine.subsequent_query(batch.data_updates())
    assert forks == []
    engine.subsequent_query(batch.pattern_updates())
    assert len(forks) == 1


def test_dropped_result_is_freed_without_the_cycle_collector(figure1_data, figure1_pattern):
    engine = UAGPNM(figure1_pattern, figure1_data)
    gc.collect()
    gc.disable()
    try:
        outcome = engine.subsequent_query(paper_example.example2_updates())
        gc.collect()  # whatever the query itself left behind
        del outcome  # the deferred sets and frozen SLen go by refcount alone
        assert gc.collect() == 0
    finally:
        gc.enable()
