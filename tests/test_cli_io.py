"""CLI behavior, canonical formats, determinism, and round-trips."""

import hashlib
import json
import re

import pytest

from mbsheaf import cli, fq, orbitpoly
from mbsheaf.cli import main
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.io import ParseError, dumps, loads, mbs_from_json, mbs_to_json, xi_dump
from mbsheaf.sheaf import PathDependenceError, check_mbs
from mbsheaf.xi import enumerate_xi
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


# sha256 of `mbsheaf example e1v REP --type T --rank R`, recorded from the
# averaging-projector construction; the base-point construction must keep them.
E1V_DUMP_SHA256 = [
    ("A", 2, "specht:2,1", "f6fb24d10b22a3bc5785ed1f2d1c203db581e87623d9867bd81ff85ca8f28758"),
    ("B", 2, "reflection", "2e9bf3375f434d731a58baef7535a592703adbc69ee8c947fcf79fff40a81da0"),
    ("G", 2, "reflection*sign", "a6d5cb7d34281cab6b680bf35e2bfc4930c89f1be4a57aeaeb37640042a89ed6"),
]


@pytest.mark.parametrize("label,rank,rep,digest", E1V_DUMP_SHA256,
                         ids=[f"{t}{r}-{rep}" for t, r, rep, _d in E1V_DUMP_SHA256])
def test_cli_example_e1v_dump_digest(tmp_path, label, rank, rep, digest):
    path = tmp_path / "e1v.json"
    assert main(["example", "e1v", rep, "--type", label, "--rank", str(rank),
                 "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cli_example_colon_form(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["example", "eq:2:2", "-o", str(a)]) == 0
    assert main(["example", "eq", "2", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_cli_check_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


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


def _self_covering(doc):
    size = doc["dims"][":0|:0"]
    doc["dprime"].append({"from": ":0|:0", "to": ":0|:0", "matrix": [
        ["1/1" if i == j else "0/1" for j in range(size)] for i in range(size)]})


def _reversed_dsecond(doc):
    entry = doc["dsecond"][0]
    doc["dsecond"][0] = {"from": entry["to"], "to": entry["from"],
                         "matrix": [list(col) for col in zip(*entry["matrix"])]}


NON_CANONICAL = ["2/4", "2/2", "1/-2", " 1/2", "1_0/1"]


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
] + [(_rational(text), r"\$\.dprime\[0\]\.matrix: .* is not canonical")
     for text in NON_CANONICAL],
    ids=["missing-from", "non-string-from", "missing-matrix", "entry-not-object", "bool-dim",
         "duplicate-dprime", "duplicate-dsecond", "non-covering-dprime",
         "non-covering-dsecond"] + [f"rational-{t!r}" for t in NON_CANONICAL])
def test_cli_check_malformed_sheaf_exits_2(tmp_path, capsys, corrupt, where):
    path = tmp_path / "e1_a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(where, err)


def test_cli_poly_hecke_orbits(capsys):
    assert main(["poly", "--type", "B", "--rank", "2"]) == 0
    assert main(["hecke", "3", "2"]) == 0
    assert main(["orbits", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


@pytest.mark.parametrize("argv", [
    ["example", "eq", "4", "3"], ["example", "eq", "5", "2"], ["orbits", "4", "2"],
    ["poly", "--type", "A", "--rank", "3", "--validate"]], ids=" ".join)
def test_cli_size_gates_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _misread_flags(monkeypatch, tmp_path):
    monkeypatch.setattr(fq, "FqContext", MisreadContext)
    return ["example", "eq", "2", "2"]


def _path_dependent_check(monkeypatch, tmp_path):
    def check_mbs(sheaf):
        raise PathDependenceError(("prime", 0, 1))
    monkeypatch.setattr(cli, "check_mbs", check_mbs)
    path = tmp_path / "e1_a1.json"
    assert main(["example", "e1", "--type", "A", "--rank", "1", "-o", str(path)]) == 0
    return ["check", str(path)]


def _hor_ver_mismatch(monkeypatch, tmp_path):
    poincare = orbitpoly.poincare_poly
    monkeypatch.setattr(orbitpoly, "poincare_poly",
                        lambda datum, members: poincare(datum, members).shift(sum(members)))
    return ["poly", "--type", "A", "--rank", "2"]


@pytest.mark.parametrize("setup", [_misread_flags, _path_dependent_check, _hor_ver_mismatch],
                         ids=["fibrewise-constancy", "path-dependence", "hor-ver-mismatch"])
def test_cli_verification_error_exits_1(monkeypatch, tmp_path, capsys, setup):
    argv = setup(monkeypatch, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("verification failure: ")


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--type", "Z", "--rank", "1"])
    assert exc.value.code == 2


def test_cli_round_trip_emit_parse_emit(tmp_path):
    src = tmp_path / "src.json"
    assert main(["example", "eq-binv", "2", "2", "-o", str(src)]) == 0
    text = src.read_text()
    parsed = mbs_from_json(loads(text))
    assert dumps(mbs_to_json(parsed)) == text
