"""Canonical JSON formats: poset dumps, sheaf files, verification reports.

Every emitter builds plain dicts in a fixed key and entry order, so
serializing twice gives byte-identical output and parse/emit round-trips
are the identity on bytes.  Rationals travel as "num/den" strings in
lowest terms with a positive denominator.  The parser accepts nothing
else: a rational in any other spelling, two covering matrices for the same
pair of cells, or a matrix on a pair that is not a covering, is a
ParseError naming its JSON path, and a key repeated in one object is a
ParseError naming the key.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str

from .coxeter import UnsupportedTypeError, build_coxeter
from .linalg import _make, fraction_from_str, fraction_to_str
from .sheaf import MixedBruhatSheaf, _per_object
from .xi import PRIME, SECOND, arrow, enumerate_xi, xi_id

MAP_KEYS = ("dprime", "dsecond")    # the file key of each side's covering matrices
_CONTAINERS = (dict, list, tuple)   # what json writes as an object or an array
_flat_encoder = functools.cache(lambda sep: json.JSONEncoder(separators=(sep, ": ")).encode)


class ParseError(ValueError):
    """Schema violation; the message carries the offending path."""


def _parse_xi_id(poset, ident, path):
    try:
        left, right = ident.split("|")
        li, lw = left.split(":")
        ri, rw = right.split(":")
        c = poset.complex.face(tuple(int(ch) for ch in li), int(lw))
        d = poset.complex.face(tuple(int(ch) for ch in ri), int(rw))
        m = poset.xi_orbit(c, d).index
    except (ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"{path}: bad cell id {ident!r}") from exc
    if xi_id(poset, m) != ident:
        raise ParseError(f"{path}: cell id {ident!r} is not canonical; "
                         f"the cell's id is {xi_id(poset, m)!r}")
    return m


def xi_dump(poset):
    """Poset dump: elements plus every strict comparability with its flags."""
    elements = [{
        "id": xi_id(poset, m),
        "typeI": list(e.typeIJ[0]),
        "typeJ": list(e.typeIJ[1]),
        "orbit_size": e.orbit_size,
        "hor": list(e.hor),
        "ver": list(e.ver),
        "flat_dim": e.flat.dim,
        "flat_id": e.flat.ident,
    } for m, e in enumerate(poset.elements)]
    relations = [{"from": xi_id(poset, m), "to": xi_id(poset, n), "kind": kind, "anodyne": ano}
                 for m, n, kind, ano in sorted(poset.comparable_pairs())]
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
    try:
        distinct = dict.fromkeys(chain.from_iterable(rows))     # in row order
    except TypeError:       # a list or an object, unhashable and not a string
        distinct = [None]
    if not all(isinstance(x, str) for x in distinct):
        raise ParseError(f"{path}: matrix entries must be \"num/den\" strings")
    values = {}
    for text in distinct:
        try:
            values[text] = x = fraction_from_str(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}: bad rational entry") from exc
        if fraction_to_str(x) != text:
            raise ParseError(f"{path}.matrix: {text!r} is not canonical;"
                             f" write {fraction_to_str(x)!r}")
    # "0/1" is the one canonical zero: the rest are the nonzeros, in column order
    return _make(tuple([tuple([(j, values[x]) for j, x in
                               compress(enumerate(row), map("0/1".__ne__, row))])
                        for row in rows]), nrows, ncols)


def mbs_to_json(E, include_action=False):
    poset = E.poset
    dims = {xi_id(poset, m): E.dims[m] for m in range(len(poset.elements))}
    doc = {
        "datum": {"type": poset.datum.type_label, "rank": poset.datum.rank},
        "dims": dims,
    }
    spell = _per_object(matrix_to_json)     # each shared map object formatted once
    for side, key in enumerate(MAP_KEYS):
        doc[key] = [{"from": xi_id(poset, m), "to": xi_id(poset, n), "matrix": spell(mat)}
                    for (m, n), mat in sorted(E.maps(side).items())]
    if include_action:
        # point permutations per group element, for sheaves carrying an action
        doc["group_action"] = {
            str(w): {xi_id(poset, m): poset.point_action(w, m) for m in range(len(poset.elements))}
            for w in range(poset.datum.order)}
    return doc


def mbs_from_json(doc):
    """Rebuild a sheaf (and its poset) from the canonical format."""
    if not isinstance(doc, dict):
        raise ParseError("$: document must be an object")
    datum_doc = doc.get("datum")
    if (not isinstance(datum_doc, dict) or "type" not in datum_doc
            or "rank" not in datum_doc):
        raise ParseError("$.datum: must carry type and rank")
    if not isinstance(datum_doc["type"], str):
        raise ParseError("$.datum.type: must be a string")
    if type(datum_doc["rank"]) is not int:
        raise ParseError("$.datum.rank: must be an integer")
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
    parsed = {}
    return MixedBruhatSheaf(poset, dims, _maps_from_json(doc, PRIME, poset, dims, parsed),
                            _maps_from_json(doc, SECOND, poset, dims, parsed))


def _maps_from_json(doc, side, poset, dims, parsed):
    """The covering matrices of one side, listed under its key, by (from, to) cell index.

    A dprime matrix maps E(from) -> E(to), a dsecond matrix E(to) -> E(from),
    and from must cover to in that order.  Equal matrices are one object: each
    is parsed and checked, then interned in ``parsed`` by its shape and entry text.
    """
    key = MAP_KEYS[side]
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"$.{key}: must be a list")
    covers = poset.cov[side]
    maps, first = {}, {}
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
        got = matrix_from_json(entry["matrix"], dims[dst], dims[src], path)
        maps[(m, n)] = parsed.setdefault((got.shape, tuple(map(tuple, entry["matrix"]))), got)
    return maps


def _emit(x, indent, write):
    """Write json.dumps(x, indent=2, ensure_ascii=True) of string-keyed x nested at indent,
    a container holding no container as one piece made in C: a list of strings (a matrix
    row) by a join, else by json's encoder with the newline and indent as item separator."""
    if not x or not isinstance(x, _CONTAINERS):
        write(json.dumps(x))
        return
    inner = indent + "  "
    sep = ",\n" + inner
    values = x.values() if isinstance(x, dict) else x
    try:
        text = values is x and f"[{sep.join(map(_encode_str, x))}]"    # False for a dict
    except TypeError:       # an element that is not a string
        text = False
    if not (text or any(map(isinstance, values, repeat(_CONTAINERS)))):
        text = _flat_encoder(sep)(x)
    if text:
        write(f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}")
        return
    keys = repeat("") if values is x else (_encode_str(k) + ": " for k in x)
    head = ("[" if values is x else "{") + "\n" + inner
    for key, v in zip(keys, values):
        write(head + key)
        _emit(v, inner, write)
        head = sep
    write("\n" + indent + ("]" if values is x else "}"))


def dumps(doc):
    """The one serialization used everywhere: json.dumps(doc, indent=2) and a newline."""
    parts = []
    _emit(doc, "", parts.append)
    return "".join(parts) + "\n"


def dump(doc, fh):
    """Write dumps(doc) to the text file fh as it is emitted, never holding it whole."""
    _emit(doc, "", fh.write)
    fh.write("\n")


def _unique_keys(pairs):
    """json's object hook: an object as a dict, a repeated key a ParseError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for i, (k, _v) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ParseError(f"$: duplicate key {key!r}")
    return doc


def loads(text):
    """Parse a JSON document; invalid JSON or a repeated key is a ParseError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"$: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
    except RecursionError as exc:
        raise ParseError("$: invalid JSON (nested too deeply)") from exc


def poly_dump(poset, polys, report):
    return {
        "datum": {"type": poset.datum.type_label, "rank": poset.datum.rank},
        "polynomials": {xi_id(poset, m): list(polys[m]) for m in range(len(poset.elements))},
        "properties": "PASS" if report.ok else "FAIL",
        "failures": [repr(f) for f in report.failures],
    }


def check_dump(poset, axioms, support, cosupport, constructibility):
    """The ``mbsheaf check`` report; witnesses name cells by ``xi_id`` (Cousin: the first)."""
    def entry(rep):
        return {"status": "PASS" if rep.ok else "FAIL",
                "failures": [repr((xi_id(poset, f[0]), *f[1:])) for f in rep.failures]}

    def spelled(name):
        return [repr(tuple(xi_id(poset, x) if isinstance(x, int) else x for x in w))
                for w in axioms.witnesses[name]]
    return {
        "axioms": {
            "status": "PASS" if axioms.ok else "FAIL",
            "mbs1": spelled("MBS1"),
            "mbs2": spelled("MBS2"),
            "mbs3": spelled("MBS3"),
            "shape": spelled("shape"),
        },
        "support": entry(support),
        "cosupport": entry(cosupport),
        "constructibility": entry(constructibility),
    }
