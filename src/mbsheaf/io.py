"""Canonical JSON formats: poset dumps, sheaf files, verification reports.

Every emitter builds plain dicts in a fixed key and entry order, so
serializing twice gives byte-identical output and parse/emit round-trips
are the identity on bytes.  Rationals travel as "num/den" strings in
lowest terms with a positive denominator.  The parser accepts nothing
else: a rational in any other spelling, two covering matrices for the same
pair of cells, or a matrix on a pair that is not a covering, is a
ParseError naming its JSON path.
"""

from __future__ import annotations

import json

from .coxeter import build_coxeter
from .linalg import RationalMatrix, fraction_from_str, fraction_to_str
from .sheaf import MixedBruhatSheaf
from .xi import PRIME, SECOND, arrow, enumerate_xi

MAP_KEYS = ("dprime", "dsecond")    # the file key of each side's covering matrices


class ParseError(ValueError):
    """Schema violation; the message carries the offending path."""


def xi_id(poset, m):
    c, d = poset.elements[m].pair
    left = "".join(map(str, c.type_I))
    right = "".join(map(str, d.type_I))
    return f"{left}:{c.rep_idx}|{right}:{d.rep_idx}"


def _parse_xi_id(poset, ident, path):
    try:
        left, right = ident.split("|")
        li, lw = left.split(":")
        ri, rw = right.split(":")
        c = poset.complex.face(tuple(int(ch) for ch in li), int(lw))
        d = poset.complex.face(tuple(int(ch) for ch in ri), int(rw))
        return poset.xi_orbit(c, d).index
    except (ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"{path}: bad cell id {ident!r}") from exc


def xi_dump(poset):
    """Poset dump: elements plus every strict comparability with its flags."""
    elements = []
    for m, e in enumerate(poset.elements):
        elements.append({
            "id": xi_id(poset, m),
            "typeI": list(e.typeIJ[0]),
            "typeJ": list(e.typeIJ[1]),
            "orbit_size": e.orbit_size,
            "hor": list(e.hor),
            "ver": list(e.ver),
            "flat_dim": e.flat.dim,
            "flat_id": e.flat.ident,
        })
    relations = []
    for m, n, kind, ano in sorted(poset.comparable_pairs()):
        relations.append({
            "from": xi_id(poset, m),
            "to": xi_id(poset, n),
            "kind": kind,
            "anodyne": ano,
        })
    return {
        "datum": {"type": poset.datum.type_label, "rank": poset.datum.rank},
        "element_count": len(elements),
        "relation_count": len(relations),
        "elements": elements,
        "relations": relations,
    }


def matrix_to_json(mat):
    out = []
    for sparse in mat.sparse_rows:
        row = ["0/1"] * mat.ncols
        for j, x in sparse:
            row[j] = fraction_to_str(x)
        out.append(row)
    return out


def matrix_from_json(rows, nrows, ncols, path):
    """Parse a matrix of canonical "num/den" strings.

    Only the form fraction_to_str emits is accepted (lowest terms, positive
    denominator, no sign, space or underscore beyond a leading minus), so
    every accepted file emits back byte for byte.
    """
    if (not isinstance(rows, list) or len(rows) != nrows
            or any(not isinstance(r, list) or len(r) != ncols for r in rows)):
        raise ParseError(f"{path}: matrix shape must be {nrows}x{ncols}")
    if not all(isinstance(x, str) for row in rows for x in row):
        raise ParseError(f"{path}: matrix entries must be \"num/den\" strings")
    values = {}
    for text in dict.fromkeys(x for row in rows for x in row):
        try:
            values[text] = x = fraction_from_str(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}: bad rational entry") from exc
        if fraction_to_str(x) != text:
            raise ParseError(f"{path}.matrix: {text!r} is not canonical;"
                             f" write {fraction_to_str(x)!r}")
    return RationalMatrix.from_sparse(
        [[(j, values[x]) for j, x in enumerate(row)] for row in rows], ncols)


def mbs_to_json(E, include_action=False):
    poset = E.poset
    dims = {xi_id(poset, m): E.dims[m] for m in range(len(poset.elements))}
    doc = {
        "datum": {"type": poset.datum.type_label, "rank": poset.datum.rank},
        "dims": dims,
    }
    for side, key in enumerate(MAP_KEYS):
        doc[key] = [{"from": xi_id(poset, m), "to": xi_id(poset, n),
                     "matrix": matrix_to_json(mat)}
                    for (m, n), mat in sorted(E.maps(side).items())]
    if include_action:
        # point permutations per group element, for sheaves carrying an action
        act = poset.complex.action
        block = {}
        for w in range(poset.datum.order):
            per_cell = {}
            for m, e in enumerate(poset.elements):
                per_cell[xi_id(poset, m)] = [
                    e.point_index[(act[w][c], act[w][d])] for (c, d) in e.points]
            block[str(w)] = per_cell
        doc["group_action"] = block
    return doc


def mbs_from_json(doc, poset=None):
    """Rebuild a sheaf (and its poset) from the canonical format."""
    if not isinstance(doc, dict):
        raise ParseError("$: document must be an object")
    datum_doc = doc.get("datum")
    if (not isinstance(datum_doc, dict) or "type" not in datum_doc
            or "rank" not in datum_doc):
        raise ParseError("$.datum: must carry type and rank")
    if poset is None:
        from .coxeter import UnsupportedTypeError
        try:
            poset = enumerate_xi(build_coxeter(datum_doc["type"], datum_doc["rank"]))
        except UnsupportedTypeError as exc:
            raise ParseError(f"$.datum: {exc}") from exc
    dims_doc = doc.get("dims")
    if not isinstance(dims_doc, dict):
        raise ParseError("$.dims: must be an object")
    dims = [None] * len(poset.elements)
    for ident, d in dims_doc.items():
        m = _parse_xi_id(poset, ident, "$.dims")
        if type(d) is not int or d < 0:
            raise ParseError(f"$.dims.{ident}: must be a nonnegative integer")
        dims[m] = d
    if any(d is None for d in dims):
        raise ParseError("$.dims: missing cells")
    return MixedBruhatSheaf(poset, dims, _maps_from_json(doc, PRIME, poset, dims),
                            _maps_from_json(doc, SECOND, poset, dims))


def _maps_from_json(doc, side, poset, dims):
    """The covering matrices of one side, listed under its key, by (from, to) cell index.

    A dprime matrix maps E(from) -> E(to), a dsecond matrix E(to) -> E(from),
    and from must cover to in that order.
    """
    key = MAP_KEYS[side]
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"$.{key}: must be a list")
    covers = poset.cov[side]
    maps = {}
    first = {}
    for k, entry in enumerate(entries):
        path = f"$.{key}[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: must be an object")
        for field in ("from", "to", "matrix"):
            if field not in entry:
                raise ParseError(f"{path}: missing {field!r}")
        for field in ("from", "to"):
            if not isinstance(entry[field], str):
                raise ParseError(f"{path}.{field}: must be a cell id string")
        m = _parse_xi_id(poset, entry["from"], path)
        n = _parse_xi_id(poset, entry["to"], path)
        if all(t != n for _s, t in covers[m]):
            raise ParseError(f"{path}: not a {key} covering: {entry['from']} -> {entry['to']}")
        if (m, n) in first:
            raise ParseError(f"{path}: duplicate of {first[(m, n)]} (same from and to cells)")
        first[(m, n)] = path
        src, dst = arrow(side, m, n)
        maps[(m, n)] = matrix_from_json(entry["matrix"], dims[dst], dims[src], path)
    return maps


def dumps(doc):
    """The one serialization used everywhere: fixed separators, trailing newline."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"$: invalid JSON ({exc.msg} at line {exc.lineno})") from exc


def poly_dump(poset, polys, report):
    table = {}
    for m in range(len(poset.elements)):
        table[xi_id(poset, m)] = list(polys[m].coeffs)
    return {
        "datum": {"type": poset.datum.type_label, "rank": poset.datum.rank},
        "polynomials": table,
        "properties": "PASS" if report.ok else "FAIL",
        "failures": [repr(f) for f in report.failures],
    }


def check_dump(axioms, support, cosupport, constructibility):
    def entry(rep):
        return {"status": "PASS" if rep.ok else "FAIL",
                "failures": [repr(f) for f in rep.failures]}
    witnesses = axioms.witnesses
    return {
        "axioms": {
            "status": "PASS" if axioms.ok else "FAIL",
            "mbs1": [repr(f) for f in witnesses["MBS1"]],
            "mbs2": [repr(f) for f in witnesses["MBS2"]],
            "mbs3": [repr(f) for f in witnesses["MBS3"]],
            "shape": [repr(f) for f in witnesses["shape"]],
        },
        "support": entry(support),
        "cosupport": entry(cosupport),
        "constructibility": entry(constructibility),
    }
