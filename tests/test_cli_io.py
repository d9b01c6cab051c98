"""CLI behavior, canonical formats, determinism, and round-trips."""

import ast
import hashlib
import io
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbsheaf
from mbsheaf import cli, fq, orbitpoly
from mbsheaf.cli import main
from mbsheaf.cousin import constructibility_check, coperversity_check, support_check
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.io import (
    ParseError, check_dump, dump, dumps, loads, mbs_from_json, mbs_to_json, poly_dump, xi_dump,
    xi_id,
)
from mbsheaf.linalg import RationalMatrix, fraction_to_str
from mbsheaf.orbitpoly import orbit_poly, property_suite
from mbsheaf.report import Report
from mbsheaf.sheaf import check_mbs
from mbsheaf.xi import PRIME, SECOND, arrow, enumerate_xi
from test_cousin import a1_cells
from test_fq import MisreadContext


@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


# -- formats -------------------------------------------------------------------

def test_xi_dump_a1_shape(xi_a1):
    doc = xi_dump(xi_a1)
    assert doc["element_count"] == 5
    assert doc["relation_count"] == 8
    assert sum(1 for r in doc["relations"] if r["anodyne"]) == 4
    kinds = sorted(r["kind"] for r in doc["relations"])
    assert kinds == ["mixed", "mixed", "prime", "prime", "prime",
                     "second", "second", "second"]


def test_xi_dump_deterministic(xi_a1):
    a = dumps(xi_dump(xi_a1))
    b = dumps(xi_dump(enumerate_xi(build_coxeter("A", 1))))
    assert a == b


def test_mbs_round_trip_bytes(xi_a1):
    e1 = build_e1(xi_a1)
    text = dumps(mbs_to_json(e1))
    parsed = mbs_from_json(loads(text))
    assert dumps(mbs_to_json(parsed)) == text
    assert parsed.dims == e1.dims
    assert parsed.dprime == e1.dprime
    assert parsed.dsecond == e1.dsecond


def test_mbs_round_trip_rational_entries():
    xi = enumerate_xi(build_coxeter("A", 1))
    sheaf = build_e1v(xi, rep_catalog(xi.datum, "sign"))
    text = dumps(mbs_to_json(sheaf))
    parsed = mbs_from_json(loads(text))
    assert dumps(mbs_to_json(parsed)) == text
    assert check_mbs(parsed).ok


def test_parse_errors_carry_paths(xi_a1):
    with pytest.raises(ParseError, match=r"\$\.datum"):
        mbs_from_json({"dims": {}})
    doc = mbs_to_json(build_e1(xi_a1))
    doc["dims"]["bogus:0|:0"] = 1
    with pytest.raises(ParseError, match=r"\$\.dims"):
        mbs_from_json(doc)
    doc2 = mbs_to_json(build_e1(xi_a1))
    doc2["dprime"][0]["matrix"] = [["1/1"]]
    with pytest.raises(ParseError, match=r"\$\.dprime\[0\]"):
        mbs_from_json(doc2)


def _oracle(doc):
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _assert_emits_as_json(doc):
    text = dumps(doc)
    assert text == _oracle(doc)
    out = io.StringIO()
    dump(doc, out)
    assert out.getvalue() == text


@pytest.fixture(scope="module")
def cli_documents():
    """One document of each kind the CLI writes."""
    poset = enumerate_xi(build_coxeter("A", 2))
    E = build_e1(poset)
    sizes = [e.orbit_size for e in poset.elements]
    # a zero map on an anodyne covering fails MBS3
    (m, n), mat = next((mn, mat) for mn, mat in sorted(E.dprime.items())
                       if sizes[mn[0]] == sizes[mn[1]])
    broken = E.copy_with(E.dims, {**E.dprime, (m, n): RationalMatrix.zeros(*mat.shape)},
                         E.dsecond)
    skipped = Report(ran=False)
    return {
        "xi": xi_dump(poset),
        "sheaf": mbs_to_json(E),
        "sheaf-with-action": mbs_to_json(E, include_action=True),
        "check-pass": check_dump(poset, check_mbs(E), support_check(E), coperversity_check(E),
                                 constructibility_check(E)),
        "check-fail": check_dump(poset, check_mbs(broken), skipped, skipped, skipped),
        "poly": poly_dump(poset, {m: orbit_poly(poset, m) for m in range(len(poset.elements))},
                          property_suite(poset)),
        "hecke": {"n": 3, "q": 2, "quadratic": "PASS", "braid": "FAIL"},
        "orbits": {"n": 2, "q": 3, "checked": 12, "status": "FAIL",
                   "failures": ["('orbit', 1)", "('orbit', 2)"]},
    }


@pytest.mark.parametrize("kind", ["xi", "sheaf", "sheaf-with-action", "check-pass",
                                  "check-fail", "poly", "hecke", "orbits"])
def test_emitter_matches_json_dumps_on_cli_documents(cli_documents, kind):
    """dumps and dump write json.dumps(indent=2) byte for byte."""
    doc = cli_documents[kind]
    if kind.startswith("check"):
        assert doc["axioms"]["status"] == ("FAIL" if kind == "check-fail" else "PASS")
    _assert_emits_as_json(doc)


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.text() | inner) | st.lists(st.text())
                   | st.dictionaries(st.text(), inner)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_VALUES)
def test_emitter_matches_json_dumps_on_generated_values(doc):
    """Empty and nested containers, non-ASCII text, and lists mixing strings
    with other values emit as json.dumps does."""
    _assert_emits_as_json(doc)


_E1 = {}


def _rescaled_e1(label, rank, rng):
    """E_1 with each cell's basis scaled by a random nonzero rational, every
    covering map conjugated to match: an isomorphic sheaf whose maps carry
    negative and non-integer entries."""
    if (label, rank) not in _E1:
        _E1[(label, rank)] = build_e1(enumerate_xi(build_coxeter(label, rank)))
    E = _E1[(label, rank)]
    scale = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
             for _ in E.dims]
    maps = [{}, {}]
    for side in (PRIME, SECOND):
        for (m, n), mat in E.maps(side).items():
            src, dst = arrow(side, m, n)
            maps[side][(m, n)] = mat.scale(scale[dst] / scale[src])
    return E.copy_with(E.dims, *maps)


@settings(max_examples=8, deadline=None)
@given(datum=st.sampled_from([("A", 1), ("A", 2), ("B", 2), ("G", 2)]),
       seed=st.integers(0, 2**32 - 1))
def test_mbs_round_trip_on_rescaled_e1(datum, seed):
    E = _rescaled_e1(*datum, random.Random(seed))
    text = dumps(mbs_to_json(E))
    parsed = mbs_from_json(loads(text))
    assert parsed.dims == E.dims
    assert parsed.dprime == E.dprime
    assert parsed.dsecond == E.dsecond
    assert dumps(mbs_to_json(parsed)) == text


# -- CLI ------------------------------------------------------------------------

def test_cli_xi_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["xi", "--type", "A", "--rank", "1", "-o", str(out1)]) == 0
    assert main(["xi", "--type", "A", "--rank", "1", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["element_count"] == 5 and doc["relation_count"] == 8


def test_cli_invalid_rank(capsys):
    assert main(["xi", "--type", "A", "--rank", "9"]) == 2


def test_cli_example_and_check(tmp_path, capsys):
    path = tmp_path / "e1_g2.json"
    assert main(["example", "e1", "--type", "G", "--rank", "2",
                 "-o", str(path)]) == 0
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_cli_example_eq_dims(tmp_path):
    path = tmp_path / "eq_2_3.json"
    assert main(["example", "eq", "2", "3", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert sorted(doc["dims"].values()) == [1, 4, 4, 4, 4]
    assert main(["check", str(path)]) == 0


def test_cli_example_e1v_sign(tmp_path):
    path = tmp_path / "e1v.json"
    assert main(["example", "e1v", "sign", "--type", "A", "--rank", "1",
                 "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert sorted(doc["dims"].values()) == [0, 1, 1, 1, 1]


def test_cli_example_e1_with_action(tmp_path, capsys):
    """Each w's point permutation at each cell is E1Sheaf.action_matrix(w, m),
    and check passes the file."""
    path = tmp_path / "e1_a2.json"
    assert main(["example", "e1", "--type", "A", "--rank", "2", "--with-action",
                 "-o", str(path)]) == 0
    block = json.loads(path.read_text())["group_action"]
    E = build_e1(enumerate_xi(build_coxeter("A", 2)))
    ids = [xi_id(E.poset, m) for m in range(len(E.dims))]
    assert list(block) == [str(w) for w in range(E.poset.datum.order)]
    for w, per_cell in block.items():
        assert list(per_cell) == ids
        for m, ident in enumerate(ids):
            perm = per_cell[ident]
            rows = [()] * len(perm)
            for k, image in enumerate(perm):
                rows[image] = ((k, 1),)
            assert RationalMatrix.from_sparse(rows, len(perm)) == E.action_matrix(int(w), m)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


# sha256 of `mbsheaf example e1v REP --type T --rank R`, recorded from the
# averaging-projector construction (the rank-3 rows from the ambient-solve
# one, the A3 specht:3,1 and specht:2,1,1 rows from the base-point one with
# Specht modules from a tableau search); the base-point construction must
# keep them.
E1V_DUMP_SHA256 = [
    ("A", 2, "specht:2,1", "f6fb24d10b22a3bc5785ed1f2d1c203db581e87623d9867bd81ff85ca8f28758"),
    ("B", 2, "reflection", "2e9bf3375f434d731a58baef7535a592703adbc69ee8c947fcf79fff40a81da0"),
    ("G", 2, "reflection*sign", "a6d5cb7d34281cab6b680bf35e2bfc4930c89f1be4a57aeaeb37640042a89ed6"),
    ("A", 3, "specht:2,2", "9390077a4507a154d606f8dbaafa2cae3180550f69929d129ff19a08811a1e33"),
    ("A", 3, "specht:3,1", "c5192ee10fd3a456b122965990253efe8e5b13f983271dd1428f7df181d87c05"),
    ("A", 3, "specht:2,1,1", "7e9adc3ca1d97d1dd1f6598c8b487c81bcbc2035e0f2670dae7515dfa0fd26d0"),
    ("B", 3, "reflection", "df58c7350a06ba63c0012f2a541d69dc73497539bcde52d616547e3d97a1a34b"),
]


# sha256 of `mbsheaf xi --type T --rank R`, recorded while each cell's flat
# came from a span closure by exact ranks; flats read off Hor types keep them.
XI_DUMP_SHA256 = [
    ("A", 1, "4a5a4863dc9c43239fdb1d7b0f186d452b6ea84c6898eaab27741a1cdbcf6361"),
    ("A", 2, "eec5d44a747abfe666d4bb8eae1836342292c0886a68fb7c3ead1c21f2521885"),
    ("A", 3, "44f568b1dc68a1c53e4d4ef2d146ecd576e92f2a65d8c66f0123abace3c1302a"),
    ("A", 4, "fafb1b6584cf30b9c79c631810744d3453b85218f6f54f5b9e13cc040e576794"),
    ("B", 2, "a94796cb2323147f8d546f2e9d4c02c497def89f37afa56afe85abb6c92a8211"),
    ("B", 3, "5e3b6377959767c2cccb52fd683488d78242edac0ed4bd0177cc9a8dd4963fac"),
    ("C", 3, "74a4550ba2ea1277e12095bbebc1cd5859a211d34a2386368a976f3f1a6036b9"),
    ("G", 2, "6783fefefe99417a7b3a5b8af443021eccef5c487b2ba5dcd2e1b7a159a528f8"),
]


# sha256 of `mbsheaf example ARGS -o FILE`, recorded while io.dumps was
# json.dumps(indent=2); the streaming emitter must keep them.
EXAMPLE_DUMP_SHA256 = [
    (["e1", "--type", "A", "--rank", "3"],
     "343283044afba40d8a49ceffc64da3eef5cb0b85346d85ba2b5238e455da148e"),
    (["e1", "--type", "A", "--rank", "2", "--with-action"],
     "00eb0fea184662c182c7ae96f0025422c634e979cbaf3e820b5123b6f3b6f54e"),
    # group_action is XiPoset.point_action at every w and cell, recorded while
    # it moved every point's two faces; the coset tables must keep them
    (["e1", "--type", "G", "--rank", "2", "--with-action"],
     "6c48879fe1904a60c0c30202ab624ea1f51830ae0eda10debb0dc4ed38fcf4d1"),
    (["e1", "--type", "A", "--rank", "3", "--with-action"],
     "d41437f798837cd3b41350f7727f5cd5c703943533993c47f2154b163da7ea03"),
    # the other types, whose maps build_e1 shares one object per distinct map:
    # B2 and G2 as bench/workloads.py pins them, B3 (a 67 MB file) as CI does
    (["e1", "--type", "B", "--rank", "2"],
     "eadf26a9c54be860c41973b10dee308da7d9942c2a87dabdeee2fbbc00b3e895"),
    (["e1", "--type", "G", "--rank", "2"],
     "a82603da56e076d455d932480e49202a2884c652efe49d4454aaef04356ffc8b"),
    (["e1", "--type", "B", "--rank", "3"],
     "85f3114f1681ead170a6153c9c24f80a5755ce673db2293672defe20cda3878a"),
    (["e1", "--type", "C", "--rank", "3"],
     "ddc0def289529df008fd610c6ce75793fcada6ff0c2534380b3ff59fb8b32a28"),
    (["eq", "3", "2"], "2fe1ed6920ed332ca9d468a602e624373ec22e68ada00ffe1491906db942431b"),
    (["eq-binv", "3", "2"], "82894992712865185c967c974ff4ee06b54b373dc9e7f765f8f95e1fc79e158b"),
    (["eq-binv", "2", "3"], "c38f809deb21cca5b7da46c8dbc8faa683431b950ee74e97a06e09d8a84df6b6"),
    (["eq-binv", "3", "3"], "a05a90e5c4a1cf53c2e1004edd4faf0a9cac84e8a7f769c0fbb28c3bb72381e4"),
    (["eq", "3", "3"], "639c3719554ec876509c39624001066d38f80815369c149dbd19a242765fa63c"),
    # every type of A3 over F_2 through borel_orbits: an 8.6 MB file
    (["eq-binv", "4", "2"], "ed1144e5953dee02a9a7ccf31f8281e78bec072f7016bbe49432e530939e763b"),
]


@pytest.mark.parametrize("args,digest", EXAMPLE_DUMP_SHA256,
                         ids=[" ".join(a) for a, _d in EXAMPLE_DUMP_SHA256])
def test_cli_example_dump_digest(tmp_path, args, digest):
    path = tmp_path / "f.json"
    assert main(["example", *args, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("label,rank,digest", XI_DUMP_SHA256,
                         ids=[f"{t}{r}" for t, r, _d in XI_DUMP_SHA256])
def test_cli_xi_dump_digest(capsys, label, rank, digest):
    assert main(["xi", "--type", label, "--rank", str(rank)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("label,rank,rep,digest", E1V_DUMP_SHA256,
                         ids=[f"{t}{r}-{rep}" for t, r, rep, _d in E1V_DUMP_SHA256])
def test_cli_example_e1v_dump_digest(tmp_path, label, rank, rep, digest):
    path = tmp_path / "e1v.json"
    assert main(["example", "e1v", rep, "--type", label, "--rank", str(rank),
                 "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cli_example_colon_form(tmp_path, capsys):
    """An example is a subcommand: a name with its parameters after colons is none."""
    out = tmp_path / "f.json"
    for argv in (["eq:2:2"], ["e1v:specht:2,1", "--type", "A", "--rank", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["example", *argv, "-o", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
        assert not out.exists()


E1V_A2 = ["e1v", "reflection", "--type", "A", "--rank", "2", "-o", "OUT"]


@pytest.mark.parametrize("argv,canonical", [
    (["e1v", "--type", "A", "--rank", "2", "reflection", "-o", "OUT"], E1V_A2),
    (["e1v", "--type", "A", "reflection", "--rank", "2", "-o", "OUT"], E1V_A2),
    (["eq", "-o", "OUT", "2", "3"], ["eq", "2", "3", "-o", "OUT"]),
    (["eq", "2", "-o", "OUT", "3"], ["eq", "2", "3", "-o", "OUT"]),
], ids=["rep-last", "rep-between", "eq-last", "eq-split"])
def test_cli_example_params_after_options(tmp_path, argv, canonical):
    want = tmp_path / "want.json"
    got = tmp_path / "got.json"
    assert main(["example", *(str(want) if a == "OUT" else a for a in canonical)]) == 0
    assert main(["example", *(str(got) if a == "OUT" else a for a in argv)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv", [
    ["example", "e1v", "--bogus", "reflection", "--type", "A", "--rank", "2"],
    ["example", "e1v", "reflection", "--type", "A", "--rank", "2", "--bogus"],
    ["xi", "--type", "A", "--rank", "1", "extra"],
], ids=["option-before-rep", "option-last", "xi-extra-positional"])
def test_cli_unknown_argument_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_check_detects_corruption(tmp_path, capsys):
    path = tmp_path / "e1_a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1",
                 "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    # zero out an anodyne matrix: exactly the MBS3 counterexample
    for entry in doc["dprime"]:
        if entry["matrix"] == [["1/1", "0/1"], ["0/1", "1/1"]]:
            entry["matrix"] = [["0/1", "0/1"], ["0/1", "0/1"]]
            break
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--json", "-o", str(report)]) == 1
    assert "FAIL" in capsys.readouterr().out
    detail = json.loads(report.read_text())
    assert len(detail["axioms"]["mbs3"]) == 1


def _scale(entry, factor):
    entry["matrix"] = [[fraction_to_str(Fraction(x) * factor) for x in row]
                       for row in entry["matrix"]]


def _double_a_square_side(doc):
    """The first dprime map out of a cell of empty I-type doubled: MBS1 fails."""
    _scale(next(e for e in doc["dprime"] if e["from"].startswith(":")), 2)


def _gauge_a_cell(doc):
    """dprime out of 0:0|:0 doubled and into it halved: MBS2 alone fails."""
    for e in doc["dprime"]:
        if "0:0|:0" in (e["from"], e["to"]):
            _scale(e, 2 if e["from"] == "0:0|:0" else Fraction(1, 2))


def _zero_an_anodyne_map(doc):
    """A dprime map between stalks of one dimension zeroed: MBS3 fails."""
    dims = doc["dims"]
    _scale(next(e for e in doc["dprime"] if dims[e["from"]] == dims[e["to"]]), 0)


@pytest.mark.parametrize("rank,axiom,corrupt", [(2, "mbs1", _double_a_square_side),
                                                (2, "mbs2", _gauge_a_cell),
                                                (1, "mbs3", _zero_an_anodyne_map)])
def test_cli_check_witnesses_name_cells_of_the_file(tmp_path, rank, axiom, corrupt):
    """Each cell of an axiom witness in check --json is the id of a cell of
    the checked file; MBS1 and MBS3 witnesses name their order first.  In
    A2 every anodyne map lies on a square, so MBS3 is broken in A1."""
    path, report = tmp_path / "e1.json", tmp_path / "report.json"
    assert main(["example", "e1", "--type", "A", "--rank", str(rank), "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--json", "-o", str(report)]) == 1
    axioms = json.loads(report.read_text())["axioms"]
    assert axioms[axiom]
    for name in ("mbs1", "mbs2", "mbs3"):
        for text in axioms[name]:
            w = ast.literal_eval(text)
            order, cells = (None, w) if name == "mbs2" else (w[0], w[1:])
            assert order in (None, "prime", "second"), text
            assert len(cells) == (3 if order is None else 2), text
            assert set(cells) <= set(doc["dims"]), text


def test_cli_check_missing_map(tmp_path, capsys):
    """An A2 file with its first dprime entry deleted: check --json exits 1
    with the missing map as the one shape witness, named by the file's cell
    ids, and the Cousin sections FAIL unrun, with no failures."""
    path, report = tmp_path / "e1.json", tmp_path / "report.json"
    assert main(["example", "e1", "--type", "A", "--rank", "2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    del doc["dprime"][0]
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--json", "-o", str(report)]) == 1
    assert capsys.readouterr().out == "FAIL\n"
    detail = json.loads(report.read_text())
    assert detail["axioms"] == {
        "status": "FAIL", "mbs1": [], "mbs2": [], "mbs3": [],
        "shape": [repr(("prime", ":0|:0", "0:0|:0", "missing or misshaped matrix"))]}
    for name in ("support", "cosupport", "constructibility"):
        assert detail[name] == {"status": "FAIL", "failures": []}


def test_check_dump_names_cousin_witness_cells(xi_a1):
    """Each Cousin witness names its cell by its id, degree and dimension
    staying integers.  The CLI runs Cousin only after the axioms pass, so
    check_dump is called directly, on the A1 sheaf with the anodyne dprime
    maps into the real-axis cell zeroed (support and constructibility fail)
    and the dsecond maps out of the imaginary-axis cell too (cosupport fails).
    A cosupport witness is the file's cell whose SECOND stalk fails: the cell
    :0|0:0 whose dsecond maps were zeroed."""
    e1 = build_e1(xi_a1)
    _m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    zero = RationalMatrix.zeros(2, 2)
    bad = e1.copy_with(e1.dims, {**e1.dprime, (mi, m1): zero, (mni, m1): zero},
                       {**e1.dsecond, (mi, m_neg1): zero, (mni, m_neg1): zero})
    reports = support_check(bad), coperversity_check(bad), constructibility_check(bad)
    doc = check_dump(xi_a1, check_mbs(bad), *reports)
    ids = [xi_id(xi_a1, m) for m in range(len(xi_a1.elements))]
    for name, rep in zip(("support", "cosupport", "constructibility"), reports):
        assert doc[name]["status"] == "FAIL"
        got = [ast.literal_eval(text) for text in doc[name]["failures"]]
        assert got == [(ids[w[0]], *w[1:]) for w in rep.failures], name
    cell, deg, h, dim, _ok = ast.literal_eval(doc["support"]["failures"][0])
    assert (cell, deg, h, dim) == (ids[m1], 0, 2, 1)
    assert ast.literal_eval(doc["cosupport"]["failures"][0]) == (ids[m_neg1], 0, 2, 1, False)


def test_cli_check_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line,before,key", [
    ('":0|:0": 7,', '":0|:0": 2,', ":0|:0"),
    ('"to": ":0|:0",', '"to": "0:0|:0",', "to"),
    ('"dims": {},', '"datum": {', "dims"),
], ids=["dims", "dprime-entry", "top-level"])
def test_cli_check_duplicate_key(tmp_path, capsys, line, before, key):
    # json.loads alone keeps the last of two equal keys, so the first would
    # vanish and the file would pass without re-emitting to its own bytes
    path = tmp_path / "a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1", "-o", str(path)]) == 0
    text = path.read_text()
    assert before in text
    path.write_text(text.replace(before, line + "\n" + before, 1))
    with pytest.raises(ParseError, match=re.escape(f"$: duplicate key {key!r}")):
        loads(path.read_text())
    assert main(["check", str(path)]) == 2
    assert f"duplicate key {key!r}" in capsys.readouterr().err


def _drop_from(doc):
    del doc["dprime"][0]["from"]


def _int_from(doc):
    doc["dsecond"][0]["from"] = 3


def _drop_matrix(doc):
    del doc["dsecond"][0]["matrix"]


def _entry_not_object(doc):
    doc["dprime"][0] = ["not", "an", "object"]


def _bool_dim(doc):
    doc["dims"][next(iter(doc["dims"]))] = True


def _duplicate(key):
    def corrupt(doc):
        doc[key].append(json.loads(json.dumps(doc[key][0])))
    return corrupt


def _rational(text):
    def corrupt(doc):
        doc["dprime"][0]["matrix"][0][0] = text
    return corrupt


def _matrix(edit):
    def corrupt(doc):
        edit(doc["dprime"][0]["matrix"])
    return corrupt


def _row_not_list(rows):
    rows[0] = "1/1"


def _short_row(rows):
    rows[0].pop()


def _two_bad_entries(rows):
    # the second row's bad entry comes first in column order, not in row order
    rows[0][1] = "2/4"
    rows[1][0] = "3/6"


def _self_covering(doc):
    size = doc["dims"][":0|:0"]
    doc["dprime"].append({"from": ":0|:0", "to": ":0|:0", "matrix": [
        ["1/1" if i == j else "0/1" for j in range(size)] for i in range(size)]})


def _reversed_dsecond(doc):
    entry = doc["dsecond"][0]
    doc["dsecond"][0] = {"from": entry["to"], "to": entry["from"],
                         "matrix": [list(col) for col in zip(*entry["matrix"])]}


def _alias_dim(doc):
    doc["dims"]["0:1|0:1"] = 1


def _cell_id(text):
    def corrupt(doc):
        doc["dprime"][0]["from"] = text
    return corrupt


def _top_level_list(doc):
    return json.dumps([doc])


def _dims_list(doc):
    doc["dims"] = list(doc["dims"].values())


def _dims_missing_cell(doc):
    del doc["dims"][next(iter(doc["dims"]))]


def _dprime_object(doc):
    doc["dprime"] = {}


def _datum(field, value):
    def corrupt(doc):
        doc["datum"][field] = value
    return corrupt


def _deeply_nested(doc):
    return "[" * 200_000      # the file's whole text, past json's recursion limit


NON_CANONICAL = ["2/4", "2/2", "1/-2", " 1/2", "1_0/1"]
NON_CANONICAL_IDS = [": 0|:0", ":-0|:0", ":00|:0", ":+0|:0"]


@pytest.mark.parametrize("corrupt,where", [
    (_drop_from, r"\$\.dprime\[0\]: missing 'from'"),
    (_int_from, r"\$\.dsecond\[0\]\.from: must be a cell id string"),
    (_drop_matrix, r"\$\.dsecond\[0\]: missing 'matrix'"),
    (_entry_not_object, r"\$\.dprime\[0\]: must be an object"),
    (_bool_dim, r"\$\.dims\..*: must be a nonnegative integer"),
    (_duplicate("dprime"), r"\$\.dprime\[3\]: duplicate of \$\.dprime\[0\]"),
    (_duplicate("dsecond"), r"\$\.dsecond\[3\]: duplicate of \$\.dsecond\[0\]"),
    (_self_covering, r"\$\.dprime\[3\]: not a dprime covering: :0\|:0 -> :0\|:0"),
    (_reversed_dsecond, r"\$\.dsecond\[0\]: not a dsecond covering: "),
    (_alias_dim, r"\$\.dims: cell id '0:1\|0:1' is not canonical; the cell's id is '0:0\|0:0'"),
    (_datum("rank", 2.0), r"\$\.datum\.rank: must be an integer"),
    (_datum("rank", True), r"\$\.datum\.rank: must be an integer"),
    (_datum("rank", "2"), r"\$\.datum\.rank: must be an integer"),
    (_datum("type", ["A"]), r"\$\.datum\.type: must be a string"),
    (_deeply_nested, r"\$: invalid JSON \(nested too deeply\)"),
    (_top_level_list, r"\$: document must be an object"),
    (lambda doc: doc.update(datum={"type": "H", "rank": 3}),
     r"\$\.datum: unsupported Cartan type H3"),
    (_dims_list, r"\$\.dims: must be an object"),
    (_dims_missing_cell, r"\$\.dims: missing cells"),
    (_dprime_object, r"\$\.dprime: must be a list"),
    (_rational(1), r"\$\.dprime\[0\]: matrix entries must be \"num/den\" strings"),
    (_rational("1/0"), r"\$\.dprime\[0\]: bad rational entry"),
    (_rational("x"), r"\$\.dprime\[0\]: bad rational entry"),
    (_rational(["1/1"]), r"\$\.dprime\[0\]: matrix entries must be \"num/den\" strings"),
    (_matrix(_row_not_list), r"\$\.dprime\[0\]: matrix shape must be 2x2"),
    (_matrix(_short_row), r"\$\.dprime\[0\]: matrix shape must be 2x2"),
    (_matrix(_two_bad_entries),
     r"\$\.dprime\[0\]\.matrix: '2/4' is not canonical; write '1/2'"),
] + [(_rational(text), r"\$\.dprime\[0\]\.matrix: .* is not canonical")
     for text in NON_CANONICAL
] + [(_cell_id(text), r"\$\.dprime\[0\]: cell id .* is not canonical; the cell's id is ':0\|:0'")
     for text in NON_CANONICAL_IDS],
    ids=["missing-from", "non-string-from", "missing-matrix", "entry-not-object", "bool-dim",
         "duplicate-dprime", "duplicate-dsecond", "non-covering-dprime",
         "non-covering-dsecond", "alias-dim", "float-rank", "bool-rank", "string-rank",
         "list-type", "deeply-nested", "list-document", "datum-H3", "list-dims",
         "dims-missing-cell", "object-dprime", "int-entry", "zero-denominator",
         "non-numeric-entry", "list-entry", "row-not-list", "short-row",
         "two-bad-entries"] + [f"rational-{t!r}" for t in NON_CANONICAL]
    + [f"cell-id-{t!r}" for t in NON_CANONICAL_IDS])
def test_cli_check_malformed_sheaf_exits_2(tmp_path, capsys, corrupt, where):
    path = tmp_path / "e1_a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    path.write_text(corrupt(doc) or json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(where, err)


# sha256 of the stdout of `mbsheaf poly ARGS --json`, recorded while the
# polynomials were still a class; the coefficient tuples must keep them.
POLY_JSON_SHA256 = [
    ("G2", ["--type", "G", "--rank", "2"],
     "53075a239ac94467145a4671505cba89f55dd20319a4a2f1b6f32d7b76732f59"),
    ("B3", ["--type", "B", "--rank", "3"],
     "526a557910b49b9a609bab967735a962bb41ed85d1403705ae157b644015f998"),
    ("A2-validate", ["--type", "A", "--rank", "2", "--validate"],
     "0b08181ee107eb69259a6d2eced8f7c0d577a440a73d317eaf16fab681050596"),
]


@pytest.mark.parametrize("args,digest", [(a, d) for _i, a, d in POLY_JSON_SHA256],
                         ids=[i for i, _a, _d in POLY_JSON_SHA256])
def test_cli_poly_json_digest(capsys, args, digest):
    assert main(["poly", *args, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_poly_hecke_orbits(capsys):
    assert main(["poly", "--type", "B", "--rank", "2"]) == 0
    assert main(["hecke", "3", "2"]) == 0
    assert main(["orbits", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


@pytest.mark.parametrize("argv", [
    ["example", "eq", "4", "3"], ["example", "eq", "5", "2"], ["orbits", "4", "2"],
    ["orbits", "3", "7"],
    ["poly", "--type", "A", "--rank", "3", "--validate"],
    ["poly", "--type", "B", "--rank", "2", "--validate"],
    ["hecke", "1", "2"], ["hecke", "0", "2"]], ids=" ".join)
def test_cli_size_gates_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command,name", [("check", "loads"), ("example", "mbs_to_json")])
def test_cli_out_of_memory_exits_2(monkeypatch, tmp_path, capsys, command, name):
    """Running out of memory is exit 2, as for a size gate, not a traceback."""
    path = tmp_path / "e1_a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1", "-o", str(path)]) == 0
    if command == "example":
        path.unlink()
    monkeypatch.setattr(cli, name, _out_of_memory)
    argv = ["check", str(path)] if command == "check" else ["example", "e1", "-o", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert path.exists() == (command == "check")


def _misread_flags(monkeypatch, tmp_path):
    monkeypatch.setattr(fq, "FqContext", MisreadContext)
    return ["example", "eq", "2", "2"]


def _hor_ver_mismatch(monkeypatch, tmp_path):
    poincare = orbitpoly.poincare_poly
    monkeypatch.setattr(orbitpoly, "poincare_poly",
                        lambda datum, members: (0,) * sum(members) + poincare(datum, members))
    return ["poly", "--type", "A", "--rank", "2"]


@pytest.mark.parametrize("setup", [_misread_flags, _hor_ver_mismatch],
                         ids=["fibrewise-constancy", "hor-ver-mismatch"])
def test_cli_verification_error_exits_1(monkeypatch, tmp_path, capsys, setup):
    argv = setup(monkeypatch, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("verification failure: ")


@pytest.mark.parametrize("argv,message", [
    (["example", "e1v", "--type", "A", "--rank", "2"],
     "mbsheaf example e1v: error: the following arguments are required: rep"),
    (["example", "eq", "3"], "mbsheaf example eq: error: the following arguments are required: q"),
    (["example", "eq-binv"],
     "mbsheaf example eq-binv: error: the following arguments are required: n, q"),
    (["example", "nosuch"], "mbsheaf example: error: argument example: invalid choice: "
     "'nosuch' (choose from 'e1', 'e1v', 'eq', 'eq-binv')"),
    (["example", "e1", "extra"], "mbsheaf: error: unrecognized arguments: extra"),
    (["example", "e1", "--type", "A", "--rank", "1", "a", "b", "c"],
     "mbsheaf: error: unrecognized arguments: a b c"),
    (["example", "eq", "2", "2", "--with-action"],
     "mbsheaf: error: unrecognized arguments: --with-action"),
    (["example", "eq", "2", "2", "--type", "G", "--rank", "2"],
     "mbsheaf: error: unrecognized arguments: --type G --rank 2"),
    (["example", "eq", "--type", "A", "2", "3"],
     "mbsheaf: error: unrecognized arguments: --type A"),
    (["example", "eq-binv", "2", "--rank", "1", "3"],
     "mbsheaf: error: unrecognized arguments: --rank 1"),
    (["example", "eq", "2", "x"], "mbsheaf example eq: error: argument q: invalid int value: 'x'"),
    (["example", "e1v", "SIGN", "--type", "A", "--rank", "1"],
     "error: unknown representation name 'SIGN'"),
    (["example", "e1v", "specht:02,1", "--type", "A", "--rank", "2"],
     "error: unknown representation name 'specht:02,1'"),
    (["example", "e1v", "specht:2,1", "--type", "B", "--rank", "2"],
     "error: Specht modules require a type A datum"),
    (["xi", "--type", "D", "--rank", "4"], "mbsheaf xi: error: argument --type: invalid choice: "
     "'D' (choose from 'A', 'B', 'C', 'G')"),
    (["example", "e1", "--type", "D"], "mbsheaf example e1: error: argument --type: invalid "
     "choice: 'D' (choose from 'A', 'B', 'C', 'G')"),
    (["xi", "--type", "C", "--rank", "2"], "error: unsupported Cartan type C2"),
], ids=["e1v-no-rep", "eq-one-param", "eq-binv-no-params", "unknown-example", "e1-param",
        "e1-params-after-options", "eq-with-action", "eq-type-rank", "eq-type-before-params",
        "eq-binv-rank-between-params", "eq-non-integer",
        "e1v-uppercase-rep", "e1v-specht-leading-zero", "e1v-specht-type-b",
        "xi-type-d", "e1-type-d", "xi-unsupported-c2"])
def test_cli_example_bad_params_exit_2(tmp_path, capsys, argv, message):
    """argparse refuses a malformed invocation with its usage (SystemExit 2);
    rep_catalog and cartan_matrix refuse a name they do not know (returned 2)."""
    out = tmp_path / "f.json"
    argv = [*argv, "-o", str(out)]
    if message.startswith("error: "):
        assert main(argv) == 2
        assert capsys.readouterr().err == message + "\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.endswith(message + "\n")
    assert not out.exists()


def test_report_summary_failures():
    rep = Report("mbs1", "mbs2", checked=255)
    rep.witnesses["mbs2"].extend(["a", "b", "c"])
    assert rep.summary() == "FAIL (mbs2: 3 failure(s); 255 checked)"
    assert Report("mbs1", ran=False).summary() == "FAIL (not run)"
    assert Report("mbs1").summary() == "PASS"


def _imported_modules(node):
    """Dotted names a statement may import; a relative import is within mbsheaf."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        mod = ".".join(filter(None, ["mbsheaf" if node.level else "", node.module]))
        return [mod] + [f"{mod}.{a.name}" for a in node.names]
    return []


def test_only_cli_imports_io():
    """The file formats stay out of ``import mbsheaf``: no module but the CLI imports io."""
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(pathlib.Path(mbsheaf.__file__).parent.glob("*.py"))
                 if path.name != "cli.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if any(name == "mbsheaf.io" or name.startswith("mbsheaf.io.")
                        for name in _imported_modules(node))]
    assert offenders == []


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--type", "Z", "--rank", "1"])
    assert exc.value.code == 2


def _unreadable(monkeypatch, tmp_path):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    return ["check", str(tmp_path / "f.json")]


@pytest.mark.parametrize("setup", [
    lambda monkeypatch, tmp_path: ["check", str(tmp_path)],
    lambda monkeypatch, tmp_path: ["example", "e1", "-o", str(tmp_path)],
    lambda monkeypatch, tmp_path: ["check", str(tmp_path / "missing.json")],
    _unreadable,
], ids=["check-directory", "output-directory", "missing-file", "unreadable-file"])
def test_cli_os_error_exits_2(monkeypatch, tmp_path, capsys, setup):
    argv = setup(monkeypatch, tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_round_trip_emit_parse_emit(tmp_path):
    src = tmp_path / "src.json"
    assert main(["example", "eq-binv", "2", "2", "-o", str(src)]) == 0
    text = src.read_text()
    parsed = mbs_from_json(loads(text))
    assert dumps(mbs_to_json(parsed)) == text
