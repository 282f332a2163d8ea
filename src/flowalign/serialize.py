"""Checkpoint and hashing helpers.

Checkpoints are JSON parameter dumps: ``{"meta": {...}, "params":
{name: {shape, data}}}`` written with sorted keys so the SHA-256 of the
file bytes is a stable content hash. Floats are serialized via repr and
round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from .errors import IntegrityError
from .tensor import Tensor, tensor_from_json, tensor_to_json


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def params_payload(params: dict[str, Tensor], meta: dict | None = None) -> bytes:
    doc = {
        "meta": meta or {},
        "params": {k: tensor_to_json(p) for k, p in sorted(params.items())},
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def params_hash(params: dict[str, Tensor]) -> str:
    """Content hash of a parameter set, without meta."""
    return sha256_bytes(params_payload(params))


def save_checkpoint(params: dict[str, Tensor], path, meta: dict | None = None) -> str:
    """Write a JSON checkpoint; returns its SHA-256 content hash."""
    payload = params_payload(params, meta)
    Path(path).write_bytes(payload)
    return sha256_bytes(payload)


def load_strict(path, kind: str, config_cls, build):
    """Rebuild an object from its checkpoint; returns (object, meta).

    ``build(config, meta)`` makes a fresh object whose ``params`` fix the
    expected names and shapes. The checkpoint must be a JSON object of
    ``kind`` with a ``params`` object, its meta config may only hold fields
    of ``config_cls``, its meta must hold what ``build`` reads, and its
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
    config = meta.get("config", {})
    unknown = set(config) - {f.name for f in dataclasses.fields(config_cls)}
    if unknown:
        raise IntegrityError(f"{kind} checkpoint has unknown config fields: {sorted(unknown)}")
    try:
        obj = build(config_cls(**config), meta)
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
