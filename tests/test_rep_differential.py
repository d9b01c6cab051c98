"""Specht modules and conjugacy classes against the constructions they replaced.

``f1._specht`` must give the generator matrices of ``rep_reference``'s
tableau search, entry for entry, on every partition of n <= 5 (the type A
data A1-A4) and, through a rank-5 stand-in datum that only carries its
rank, on every partition of 6.  ``CoxeterDatum.conjugacy_classes`` must
equal the breadth-first search on all eight supported types, so that
``WRepresentation.character`` keys and values are unchanged.
"""

from types import SimpleNamespace

import pytest

from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.f1 import _partitions, _specht, catalog_names, rep_catalog
from rep_reference import bfs_conjugacy_classes, specht_generators


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_specht_matches_tableau_search(rank):
    datum = build_coxeter("A", rank)
    for shape in _partitions(rank + 1):
        got = rep_catalog(datum, "specht:" + ",".join(map(str, shape))).gen_mats
        assert list(got) == specht_generators(rank, shape), shape


def test_specht_matches_tableau_search_n6():
    stand_in = SimpleNamespace(rank=5)
    for shape in _partitions(6):
        assert _specht(stand_in, shape) == specht_generators(5, shape), shape


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_conjugacy_classes_match_bfs(label, rank):
    datum = build_coxeter(label, rank)
    assert datum.conjugacy_classes() == bfs_conjugacy_classes(datum)


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_character_keys_are_class_minima(label, rank):
    datum = build_coxeter(label, rank)
    minima = [cls[0] for cls in bfs_conjugacy_classes(datum)]
    for name in catalog_names(datum):
        assert list(rep_catalog(datum, name).character()) == minima


@pytest.mark.parametrize("name", ["specht(2,1)", "reflection-sign", "reflection_sign",
                                  "reflection⊗sign", "SIGN", " sign", "Specht:2,1"])
def test_aliases_are_unknown_names(name):
    with pytest.raises(ValueError):
        rep_catalog(build_coxeter("A", 2), name)
