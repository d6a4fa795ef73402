"""Canonical JSON documents for every object the toolkit works with.

One format per kind.  Keys are canonical: subset keys list atom names in
declaration order ("" is the empty set), bodies omit empty images and zero
weights, and rendering always emits the same bytes for the same object.
Parsing is strict: duplicate keys, non-canonical subset keys, and malformed
rationals are rejected up front.
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
    parse_rational,
    render_rational,
)

KINDS = ("assignment", "interval", "ambiguity", "incidence", "probability", "mass")


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_document(text: str) -> dict:
    """JSON text -> raw document dict, with shape and kind checked."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    if not isinstance(raw, dict):
        raise SchemaError("document must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown document kind: {kind!r}")
    return raw


def _require_fields(raw: dict, fields: tuple[str, ...]):
    missing = [f for f in fields if f not in raw]
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")
    extra = [k for k in raw if k not in fields]
    if extra:
        raise SchemaError(f"unexpected fields: {', '.join(extra)}")


def _names(raw, label: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise SchemaError(f"{label} must be a list of strings")
    for name in raw:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{label}: name {name!r} cannot be encoded as UTF-8") from None
    return tuple(raw)


def _frame(raw: dict) -> Frame:
    try:
        return Frame(_names(raw["atoms"], "atoms"))
    except (ValueError, DuplicateElement) as exc:
        raise SchemaError(str(exc)) from None


def _space(raw: dict) -> SituationSpace:
    try:
        return SituationSpace(_names(raw["situations"], "situations"))
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
    for key, value in body.items():
        mask = _parse_subset_key(frame, key)
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

    Axioms are not checked here; type invariants (probability normalization,
    mass positivity) are.
    """
    kind = raw.get("kind")
    if kind in ("assignment", "ambiguity"):
        _require_fields(raw, ("kind", "atoms", "situations", "body"))
        frame = _frame(raw)
        space = _space(raw)
        m = _parse_map_body(raw["body"], frame, space)
        return BasicAssignment(m) if kind == "assignment" else AmbiguityMap(m)
    if kind == "interval":
        _require_fields(raw, ("kind", "atoms", "situations", "body"))
        frame = _frame(raw)
        space = _space(raw)
        body = raw["body"]
        if not isinstance(body, dict) or set(body) != {"lower", "upper"}:
            raise SchemaError('interval body must have exactly "lower" and "upper"')
        lower = _parse_map_body(body["lower"], frame, space)
        upper = _parse_map_body(body["upper"], frame, space)
        return IntervalStructure(lower, upper)
    if kind == "incidence":
        _require_fields(raw, ("kind", "atoms", "situations", "body"))
        frame = _frame(raw)
        space = _space(raw)
        body = raw["body"]
        if not isinstance(body, dict):
            raise SchemaError("body must be an object")
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
        _require_fields(raw, ("kind", "situations", "body"))
        space = _space(raw)
        body = raw["body"]
        if not isinstance(body, dict):
            raise SchemaError("body must be an object")
        weights = []
        for sit in space.names:
            value = body.get(sit, 0)
            try:
                weights.append(parse_rational(value))
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        for sit in body:
            if sit not in space.names:
                raise SchemaError(f"unknown situation name: {sit!r}")
        return ProbabilityAssignment(space, tuple(weights))
    if kind == "mass":
        _require_fields(raw, ("kind", "atoms", "body"))
        frame = _frame(raw)
        body = raw["body"]
        if not isinstance(body, dict):
            raise SchemaError("body must be an object")
        masses = {}
        for key, value in body.items():
            mask = _parse_subset_key(frame, key)
            try:
                masses[mask] = parse_rational(value)
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        return MassFunction.from_dict(frame, masses)
    raise SchemaError(f"unknown document kind: {kind!r}")


def loads(text: str):
    """JSON text -> (kind, typed object)."""
    raw = parse_document(text)
    return raw["kind"], load_object(raw)


def document_for(obj) -> dict:
    """Typed object -> raw document dict in canonical key order."""
    if isinstance(obj, BasicAssignment):
        m = obj.map
        return {
            "kind": "assignment",
            "atoms": list(m.frame.atoms),
            "situations": list(m.space.names),
            "body": _render_map_body(m),
        }
    if isinstance(obj, AmbiguityMap):
        m = obj.map
        return {
            "kind": "ambiguity",
            "atoms": list(m.frame.atoms),
            "situations": list(m.space.names),
            "body": _render_map_body(m),
        }
    if isinstance(obj, IntervalStructure):
        return {
            "kind": "interval",
            "atoms": list(obj.lower.frame.atoms),
            "situations": list(obj.lower.space.names),
            "body": {
                "lower": _render_map_body(obj.lower),
                "upper": _render_map_body(obj.upper),
            },
        }
    if isinstance(obj, IncidenceMap):
        m = obj.map
        return {
            "kind": "incidence",
            "atoms": list(m.frame.atoms),
            "situations": list(m.space.names),
            "body": {
                sit: m.frame.atoms[obj.origin.targets[w]]
                for w, sit in enumerate(m.space.names)
            },
        }
    if isinstance(obj, ProbabilityAssignment):
        return {
            "kind": "probability",
            "situations": list(obj.space.names),
            "body": {
                sit: render_rational(obj.weights[w])
                for w, sit in enumerate(obj.space.names)
                if obj.weights[w]
            },
        }
    if isinstance(obj, MassFunction):
        return {
            "kind": "mass",
            "atoms": list(obj.frame.atoms),
            "body": {
                obj.frame.subset_key(mask): render_rational(value)
                for mask, value in obj.masses
            },
        }
    raise TypeError(f"no document format for {type(obj).__name__}")


def render_document(doc: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def dumps(obj, compact: bool = False) -> str:
    return render_document(document_for(obj), compact=compact)
