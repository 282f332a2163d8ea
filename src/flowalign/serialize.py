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

from .errors import ConfigurationError, IntegrityError
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


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "tuple": (list, tuple)}


def config_from_json(base, values, what: str):
    """``dataclasses.replace(base, **values)`` for a JSON object of base's fields.

    A section (a field that holds a config in ``base``) is read the same
    way from its own object, and a tuple field from an array of integers.
    ``values`` that is not an object, a field ``base`` lacks, a value whose
    JSON type does not fit its field (a string, a bool or null for a
    number, say) and a value the config itself refuses raise
    ``ConfigurationError``. ``what`` names the object in the message.
    """
    if not isinstance(values, dict):
        raise ConfigurationError(f"{what} is not a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(base)}
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")
    read = {}
    for k, v in values.items():
        if dataclasses.is_dataclass(getattr(base, k)):
            read[k] = config_from_json(getattr(base, k), v, k)
        elif type(v) not in _JSON_TYPES[types[k]] or (
            types[k] == "tuple" and any(type(i) is not int for i in v)
        ):
            raise ConfigurationError(f"{what} field {k}={v!r} is not of type {types[k]}")
        else:
            read[k] = tuple(v) if types[k] == "tuple" else v
    return dataclasses.replace(base, **read)


def load_strict(path, kind: str, base, build):
    """Rebuild an object from its checkpoint; returns (object, meta).

    ``build(config, meta)`` makes a fresh object whose ``params`` fix the
    expected names and shapes. The checkpoint must be a JSON object of
    ``kind`` with a ``params`` object, its meta config must be one that
    ``config_from_json`` reads over the default config ``base``, its meta
    must hold what ``build`` reads, with values ``build`` accepts, and its
    parameters must match the fresh ones name for name and shape for
    shape, each with as many values as its shape. Any other file raises
    ``IntegrityError``.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise IntegrityError(f"{path} is not a JSON checkpoint: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("params"), dict):
        raise IntegrityError(f"{path} holds no params")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise IntegrityError(f"{path} is not a {kind} checkpoint")
    try:
        config = config_from_json(base, meta.get("config", {}), f"{kind} checkpoint config")
        obj = build(config, meta)
    except (KeyError, TypeError, ValueError) as e:  # ConfigurationError is a ValueError
        raise IntegrityError(f"{kind} checkpoint meta is malformed: {e!r}") from e
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
