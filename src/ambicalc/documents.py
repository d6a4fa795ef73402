"""Canonical JSON documents for every object the toolkit works with.

One format per kind.  Keys are canonical: subset keys list atom names in
declaration order ("" is the empty set), bodies omit empty images and zero
weights, and rendering always emits the same bytes for the same object.
Parsing rejects duplicate keys, non-canonical subset keys, malformed
rationals and integer literals too long to convert.  It accepts, and renders
in canonical form, rationals not in lowest terms, JSON integers, zero
probability weights and empty images.
"""

from __future__ import annotations

import json

from .ambiguity import AmbiguityMap
from .errors import (
    DuplicateElement,
    ParseError,
    SchemaError,
    UnknownElement,
)
from .frames import Frame, SituationSpace
from .incidence import IncidenceMap, PointMap, incidence_from_pointmap
from .interval import BasicAssignment, IntervalStructure, SetValuedMap
from .numeric import (
    MassFunction,
    ProbabilityAssignment,
    as_numerators,
    parse_rational,
    render_rational,
)

# Each kind's class and its document fields, in canonical order.
_KINDS = {
    "assignment": (BasicAssignment, ("kind", "atoms", "situations", "body")),
    "interval": (IntervalStructure, ("kind", "atoms", "situations", "body")),
    "ambiguity": (AmbiguityMap, ("kind", "atoms", "situations", "body")),
    "incidence": (IncidenceMap, ("kind", "atoms", "situations", "body")),
    "probability": (ProbabilityAssignment, ("kind", "situations", "body")),
    "mass": (MassFunction, ("kind", "atoms", "body")),
}


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_document(text: str) -> dict:
    """JSON text -> raw document dict, checked to be an object; ``load_object``
    checks its kind."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    except ValueError as exc:  # an integer literal too long to convert
        raise ParseError(str(exc)) from None
    if not isinstance(raw, dict):
        raise SchemaError("document must be a JSON object")
    return raw


def _require_fields(raw: dict, fields: tuple[str, ...]):
    missing = [f for f in fields if f not in raw]
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")
    extra = [k for k in raw if k not in fields]
    if extra:
        raise SchemaError(f"unexpected fields: {', '.join(extra)}")


def _universe(raw: dict, field: str, universe):
    """The ``Frame`` or ``SituationSpace`` whose names a document's field lists."""
    names = raw[field]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SchemaError(f"{field} must be a list of strings")
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{field}: name {name!r} cannot be encoded as UTF-8") from None
    try:
        return universe(tuple(names))
    except (ValueError, DuplicateElement) as exc:
        raise SchemaError(str(exc)) from None


def _parse_subset_key(frame: Frame, key: str) -> int:
    if not isinstance(key, str):
        raise SchemaError(f"subset key must be a string, got {key!r}")
    if key == "":
        return 0
    index = frame._index
    mask = 0
    last = -1
    for name in key.split(","):
        idx = index.get(name)
        if idx is None:
            raise SchemaError(f"unknown element {name!r}")
        if idx <= last:
            raise ParseError(f"subset key {key!r} is not in canonical atom order")
        last = idx
        mask |= 1 << idx
    return mask


def _parse_map_body(body, frame: Frame, space: SituationSpace) -> SetValuedMap:
    if not isinstance(body, dict):
        raise SchemaError("body must be an object")
    table = [0] * (1 << frame.m)
    atom_bit = frame._bit.get
    seen = {}  # the nonempty keys read so far, with their masks
    for key, value in body.items():
        # most keys are a key read before, or none, plus a higher atom; any
        # other key, bad ones included, goes through _parse_subset_key
        prefix, comma, last = key.rpartition(",") if isinstance(key, str) else ("", "", "")
        head = seen.get(prefix) if comma else 0
        bit = atom_bit(last, 0)
        mask = head | bit if head is not None and bit > head else _parse_subset_key(frame, key)
        if mask:
            seen[key] = mask
        if not isinstance(value, list):
            raise SchemaError(f"image of {key!r} must be a list of situation names")
        try:
            table[mask] = space.encode(value)
        except (UnknownElement, DuplicateElement) as exc:
            raise SchemaError(str(exc)) from exc
    return SetValuedMap(frame, space, tuple(table))


def _render_map_body(m: SetValuedMap) -> dict:
    body = {}
    for a in range(len(m.table)):
        if m.table[a]:
            body[m.frame.subset_key(a)] = list(m.space.decode(m.table[a]))
    return body


def load_object(raw: dict):
    """Raw document dict -> typed object for its kind.

    The kind gate: the kind, then the fields, then the atoms and situations
    are checked before the body is read.  Axioms are not checked here; type
    invariants (probability normalization, mass positivity) are.
    """
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown document kind: {kind!r}")
    cls, fields = _KINDS[kind]
    _require_fields(raw, fields)
    frame = _universe(raw, "atoms", Frame) if "atoms" in fields else None
    space = _universe(raw, "situations", SituationSpace) if "situations" in fields else None
    body = raw["body"]
    if kind == "interval":
        if not isinstance(body, dict) or set(body) != {"lower", "upper"}:
            raise SchemaError('interval body must have exactly "lower" and "upper"')
        return cls(_parse_map_body(body["lower"], frame, space),
                   _parse_map_body(body["upper"], frame, space))
    if not isinstance(body, dict):
        raise SchemaError("body must be an object")
    if kind == "incidence":
        targets = []
        for sit in space.names:
            if sit not in body:
                raise SchemaError(f"no atom assigned to situation {sit!r}")
            atom = body[sit]
            if not isinstance(atom, str):
                raise SchemaError(f"atom for {sit!r} must be a string")
            try:
                targets.append(frame.index_of(atom))
            except UnknownElement as exc:
                raise SchemaError(str(exc)) from exc
        for sit in body:
            if sit not in space.names:
                raise SchemaError(f"unknown situation name: {sit!r}")
        return incidence_from_pointmap(PointMap(tuple(targets)), frame, space)
    if kind == "probability":
        weights = []
        for sit in space.names:
            try:
                weights.append(parse_rational(body.get(sit, 0)))
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        for sit in body:
            if sit not in space.names:
                raise SchemaError(f"unknown situation name: {sit!r}")
        return cls(space, *as_numerators(weights))
    if kind == "mass":
        masses = {}
        for key, value in body.items():
            mask = _parse_subset_key(frame, key)
            try:
                masses[mask] = parse_rational(value)
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        numerators, den = as_numerators(masses.values())
        return cls(frame, tuple(zip(masses, numerators)), den)
    return cls(_parse_map_body(body, frame, space))


def loads(text: str):
    """JSON text -> (kind, typed object)."""
    raw = parse_document(text)
    obj = load_object(raw)
    return raw["kind"], obj


def document_for(obj) -> dict:
    """Typed object -> raw document dict in canonical key order."""
    for kind, (cls, fields) in _KINDS.items():
        if isinstance(obj, cls):
            break
    else:
        raise TypeError(f"no document format for {type(obj).__name__}")
    doc = {"kind": kind}
    if "atoms" in fields:
        doc["atoms"] = list(obj.frame.atoms)
    if "situations" in fields:
        doc["situations"] = list(obj.space.names)
    if kind == "interval":
        doc["body"] = {"lower": _render_map_body(obj.lower), "upper": _render_map_body(obj.upper)}
    elif kind == "incidence":
        atoms = obj.frame.atoms
        doc["body"] = {sit: atoms[t] for sit, t in zip(obj.space.names, obj.origin.targets)}
    elif kind == "probability":
        doc["body"] = {sit: render_rational(w) for sit, w in zip(obj.space.names, obj.weights) if w}
    elif kind == "mass":
        key = obj.frame.subset_key
        doc["body"] = {key(mask): render_rational(value) for mask, value in obj.masses}
    else:
        doc["body"] = _render_map_body(obj.map)
    return doc


def render_document(doc: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def dumps(obj, compact: bool = False) -> str:
    return render_document(document_for(obj), compact=compact)
