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


def params_hash(params: dict[str, Tensor], meta: dict | None = None) -> str:
    """Content hash of a parameter set (meta excluded by default)."""
    return sha256_bytes(params_payload(params, meta={} if meta is None else meta))


def save_checkpoint(params: dict[str, Tensor], path, meta: dict | None = None) -> str:
    """Write a JSON checkpoint; returns its SHA-256 content hash."""
    payload = params_payload(params, meta)
    Path(path).write_bytes(payload)
    return sha256_bytes(payload)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    doc = json.loads(Path(path).read_text())
    params = {k: tensor_from_json(v) for k, v in doc["params"].items()}
    return params, doc.get("meta", {})


def load_strict(path, kind: str, config_cls, build):
    """Rebuild an object from its checkpoint; returns (object, meta).

    ``build(config, meta)`` makes a fresh object whose ``params`` fix the
    expected names and shapes. The checkpoint must be of ``kind``, its
    meta config may only hold fields of ``config_cls``, and its parameters
    must match the fresh ones name for name and shape for shape.
    """
    params, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise IntegrityError(f"not a {kind} checkpoint: {meta.get('kind')}")
    config = meta.get("config", {})
    unknown = set(config) - {f.name for f in dataclasses.fields(config_cls)}
    if unknown:
        raise IntegrityError(f"{kind} checkpoint has unknown config fields: {sorted(unknown)}")
    obj = build(config_cls(**config), meta)
    if set(params) != set(obj.params):
        raise IntegrityError(
            f"{kind} checkpoint parameters differ: missing {sorted(set(obj.params) - set(params))},"
            f" unexpected {sorted(set(params) - set(obj.params))}"
        )
    for k, v in params.items():
        want = obj.params[k].shape
        if v.shape != want:
            raise IntegrityError(f"{kind} parameter {k} has shape {v.shape}, expected {want}")
        obj.params[k].data[...] = v.data
    return obj, meta
