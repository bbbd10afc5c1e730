"""Elimination detection (Examples 7-9) and the EH-Tree (Example 10 / Fig. 3)."""

import pytest

from repro import paper_example
from repro.elimination.detector import (
    EliminationAnalysis,
    detect_all,
    detect_type_i,
    detect_type_ii,
    detect_type_iii,
)
from repro.elimination.eh_tree import EHTree
from repro.elimination.relations import EliminationRelation, EliminationType
from repro.graph.updates import insert_data_edge, insert_pattern_edge
from repro.matching.affected import AffectedSet, affected_set_from_delta
from repro.matching.candidates import candidate_set
from repro.matching.gpnm import gpnm_query
from repro.spl.incremental import update_slen


@pytest.fixture
def example_state(figure1_data, figure1_pattern, figure1_slen):
    """Candidate sets, affected sets and SLen_new of Example 2's four updates."""
    iquery = gpnm_query(figure1_pattern, figure1_data, figure1_slen, enforce_totality=False)
    names = paper_example.example2_update_names()
    candidates = [
        candidate_set(names["UP1"], figure1_pattern, figure1_data, figure1_slen, iquery),
        candidate_set(names["UP2"], figure1_pattern, figure1_data, figure1_slen, iquery),
    ]
    slen_new = figure1_slen.copy()
    data_new = figure1_data.copy()
    affected = []
    for key in ("UD1", "UD2"):
        names[key].apply(data_new)
        delta = update_slen(slen_new, data_new, names[key])
        affected.append(affected_set_from_delta(names[key], delta))
    return names, candidates, affected, slen_new


class TestDetectors:
    def test_type_i(self, example_state):
        names, candidates, _affected, _slen = example_state
        relations = detect_type_i(candidates)
        assert (
            EliminationRelation(names["UP1"], names["UP2"], EliminationType.SINGLE_PATTERN)
            in relations
        )
        assert all(rel.eliminated != names["UP1"] for rel in relations)

    def test_type_ii(self, example_state):
        names, _candidates, affected, _slen = example_state
        relations = detect_type_ii(affected)
        assert (
            EliminationRelation(names["UD1"], names["UD2"], EliminationType.SINGLE_DATA)
            in relations
        )

    def test_type_iii_example9(self, example_state):
        names, candidates, affected, slen_new = example_state
        relations = detect_type_iii(candidates, affected, slen_new)
        pairs = {(rel.eliminator, rel.eliminated) for rel in relations}
        assert (names["UD1"], names["UP1"]) in pairs
        # UD2's affected nodes do not cover Can_N(UP1), so no relation there.
        assert (names["UD2"], names["UP1"]) not in pairs

    def test_detect_all_bundle(self, example_state):
        names, candidates, affected, slen_new = example_state
        analysis = detect_all(candidates, affected, slen_new)
        assert analysis.number_of_eliminated >= 2
        assert names["UP2"] in analysis.eliminated_updates()
        assert names["UD1"] in analysis.eliminators_of(names["UP1"])
        assert len(analysis.relations_of_type(EliminationType.SINGLE_DATA)) >= 1

    def test_type_i_requires_same_direction(self, figure1_data, figure1_pattern, figure1_slen):
        iquery = gpnm_query(figure1_pattern, figure1_data, figure1_slen, enforce_totality=False)
        from repro.graph.updates import delete_pattern_edge

        insertion = candidate_set(
            insert_pattern_edge("PM", "TE", 2), figure1_pattern, figure1_data, figure1_slen, iquery
        )
        deletion = candidate_set(
            delete_pattern_edge("PM", "S", 3), figure1_pattern, figure1_data, figure1_slen, iquery
        )
        relations = detect_type_i([insertion, deletion])
        assert all(
            relation.eliminator.is_insertion == relation.eliminated.is_insertion
            for relation in relations
        )

    def test_relation_helpers(self, example_state):
        names, *_rest = example_state
        relation = EliminationRelation(names["UD1"], names["UD2"], EliminationType.SINGLE_DATA)
        assert relation.involves(names["UD1"])
        assert not relation.involves(names["UP1"])
        assert "⊵" in str(relation)


class TestEHTree:
    def test_example10_structure(self, example_state):
        names, candidates, affected, slen_new = example_state
        analysis = detect_all(candidates, affected, slen_new)
        updates = [names["UD1"], names["UD2"], names["UP1"], names["UP2"]]
        tree = EHTree.build(analysis, updates)
        # Figure 3: UD1 is the root; UD2 and UP1 are its children; UP2 hangs under UP1.
        assert tree.root_updates() == [names["UD1"]]
        assert tree.parent_of(names["UD2"]) == names["UD1"]
        assert tree.parent_of(names["UP1"]) == names["UD1"]
        assert tree.parent_of(names["UP2"]) == names["UP1"]
        assert set(tree.children_of(names["UD1"])) == {names["UD2"], names["UP1"]}
        assert tree.depth_of(names["UP2"]) == 2
        assert tree.number_of_eliminated == 3
        assert set(tree.eliminated_updates()) == {names["UD2"], names["UP1"], names["UP2"]}

    def test_traversal_and_ascii(self, example_state):
        names, candidates, affected, slen_new = example_state
        analysis = detect_all(candidates, affected, slen_new)
        tree = EHTree.build(analysis, list(names.values()))
        visited = [update for _depth, update in tree.traverse()]
        assert set(visited) == set(names.values())
        ascii_art = tree.to_ascii()
        assert "SE1" in ascii_art and "PM" in ascii_art

    def test_no_relations_gives_forest_of_roots(self, example_state):
        names, *_rest = example_state
        updates = list(names.values())
        tree = EHTree.build(EliminationAnalysis(), updates)
        assert tree.root_updates() == updates
        assert tree.number_of_eliminated == 0
        assert tree.node(names["UD1"]).is_root

    @pytest.mark.parametrize("first", ("a", "b"))
    def test_equal_size_tie_goes_to_earlier_arrival(self, first):
        """Two single-graph eliminators with equal node-set sizes: the one
        that arrived first becomes the parent, whatever the relation order."""
        updates = {
            "a": insert_data_edge("a1", "a2"),
            "b": insert_data_edge("b1", "b2"),
            "c": insert_data_edge("c1", "c2"),
        }
        analysis = EliminationAnalysis(
            affected_sets=[
                AffectedSet(updates["a"], frozenset({1, 2, 3})),
                AffectedSet(updates["b"], frozenset({4, 5, 6})),
                AffectedSet(updates["c"], frozenset({1})),
            ],
            relations=[
                EliminationRelation(updates[key], updates["c"], EliminationType.SINGLE_DATA)
                for key in ("b", "a")
            ],
        )
        second = "b" if first == "a" else "a"
        arrival = [updates[first], updates[second], updates["c"]]
        tree = EHTree.build(analysis, arrival)
        assert tree.parent_of(updates["c"]) == updates[first]
        assert tree.root_updates() == [updates[first], updates[second]]

    def test_duplicate_updates_collapse(self, example_state):
        names, *_rest = example_state
        tree = EHTree.build(EliminationAnalysis(), [names["UD1"], names["UD1"]])
        assert tree.number_of_updates == 1
