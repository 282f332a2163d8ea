"""Checkpoint and hashing helpers.

Checkpoints are JSON parameter dumps: ``{"meta": {...}, "params":
{name: {shape, data}}}`` written with sorted keys so the SHA-256 of the
file bytes is a stable content hash. They are written and hashed one
parameter at a time (``params_pieces``), never built whole. Floats are
serialized via repr and round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from .errors import IntegrityError
from .tensor import Tensor, tensor_from_json, tensor_to_json


def feed(digest, pieces, write=None):
    """Update ``digest`` with each of ``pieces`` in turn, handing each to ``write`` first."""
    for piece in pieces:
        if write is not None:
            write(piece)
        digest.update(piece)


def params_pieces(params: dict[str, Tensor], meta: dict | None = None):
    """The checkpoint bytes in file order, one parameter at a time.

    Yields ``{"meta": ..., "params": {``, then each parameter's entry in
    sorted order, then ``}}``; joined they are ``json.dumps(doc,
    sort_keys=True)`` of the whole document byte for byte, but only one
    parameter's text is held at a time.
    """
    yield f'{{"meta": {json.dumps(meta or {}, sort_keys=True)}, "params": {{'.encode()
    for i, (k, p) in enumerate(sorted(params.items())):
        entry = json.dumps(tensor_to_json(p), sort_keys=True)
        yield f'{", " if i else ""}{json.dumps(k)}: {entry}'.encode()
    yield b"}}"


def params_hash(params: dict[str, Tensor]) -> str:
    """Content hash of a parameter set, without meta."""
    digest = hashlib.sha256()
    feed(digest, params_pieces(params))
    return digest.hexdigest()


def save_checkpoint(params: dict[str, Tensor], path, meta: dict | None = None) -> str:
    """Write a JSON checkpoint; returns its SHA-256 content hash."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        feed(digest, params_pieces(params, meta), f.write)
    return digest.hexdigest()


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_json(config_cls, values, what: str):
    """``config_cls(**values)`` from a JSON object of its fields.

    A field ``config_cls`` lacks, or a value whose JSON type does not fit
    its field (a string for a number, say), raises ``IntegrityError``.
    """
    if not isinstance(values, dict):
        raise IntegrityError(f"{what} config is not a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(config_cls)}
    unknown = set(values) - set(types)
    if unknown:
        raise IntegrityError(f"{what} has unknown config fields: {sorted(unknown)}")
    for k, v in values.items():
        if type(v) not in _JSON_TYPES.get(types[k], (type(v),)):
            raise IntegrityError(f"{what} config field {k}={v!r} is not of type {types[k]}")
    return config_cls(**values)


def load_strict(path, kind: str, config_cls, build):
    """Rebuild an object from its checkpoint; returns (object, meta).

    ``build(config, meta)`` makes a fresh object whose ``params`` fix the
    expected names and shapes. The checkpoint must be a JSON object of
    ``kind`` with a ``params`` object, its meta config may only hold fields
    of ``config_cls``, each with a value of its field's JSON type
    (``config_from_json``), its meta must hold what ``build`` reads, and its
    parameters must match the fresh ones name for name and shape for shape,
    each with as many values as its shape. Any other file raises
    ``IntegrityError``.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise IntegrityError(f"{path} is not a JSON checkpoint: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("params"), dict):
        raise IntegrityError(f"{path} holds no params")
    meta = doc.get("meta", {})
    if meta.get("kind") != kind:
        raise IntegrityError(f"not a {kind} checkpoint: {meta.get('kind')}")
    config = config_from_json(config_cls, meta.get("config", {}), f"{kind} checkpoint")
    try:
        obj = build(config, meta)
    except KeyError as e:
        raise IntegrityError(f"{kind} checkpoint meta has no {e}") from e
    params = doc["params"]
    if set(params) != set(obj.params):
        raise IntegrityError(
            f"{kind} checkpoint parameters differ: missing {sorted(set(obj.params) - set(params))},"
            f" unexpected {sorted(set(params) - set(obj.params))}"
        )
    for k, v in params.items():
        try:
            v = tensor_from_json(v)
        except (KeyError, TypeError, ValueError) as e:
            raise IntegrityError(f"{kind} parameter {k} is malformed: {e}") from e
        want = obj.params[k].shape
        if v.shape != want:
            raise IntegrityError(f"{kind} parameter {k} has shape {v.shape}, expected {want}")
        obj.params[k].data[...] = v.data
    return obj, meta
