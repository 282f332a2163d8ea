"""Checkpoint loading: every loader refuses a checkpoint that does not fit."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowalign.alignment import AlignConfig, AlignmentHead
from flowalign.encoder import EncoderConfig, SpeakerEncoder
from flowalign.errors import IntegrityError
from flowalign.flow import FlowConfig, FlowModel
from flowalign.serialize import params_hash, save_checkpoint
from flowalign.tensor import Tensor, tensor_to_json

from conftest import traced_peak

SMALL = {
    "flow": (
        lambda: FlowModel(
            FlowConfig(feat_dim=4, hidden=6, n_blocks=2, vocab=5, token_embed_dim=3,
                       cond_dim=4, time_embed_dim=8, frames_per_token=2)
        ),
        FlowModel.load,
    ),
    "head": (
        lambda: AlignmentHead(
            AlignConfig(time_embed_dim=4, adapter_hidden=5, time_hidden=5), 2, 6, 4
        ),
        AlignmentHead.load,
    ),
    "encoder": (
        lambda: SpeakerEncoder(EncoderConfig(hidden=8, embed_dim=4), n_classes=3),
        SpeakerEncoder.load,
    ),
}


def _wrong_kind(doc):
    doc["meta"]["kind"] = "other"


def _missing_param(doc):
    doc["params"].pop(sorted(doc["params"])[-1])


def _extra_param(doc):
    doc["params"]["pre0_w1"] = {"shape": [1], "data": [0.0]}


def _wrong_shape(doc):
    name = next(k for k, v in sorted(doc["params"].items()) if len(v["shape"]) == 1)
    doc["params"][name] = {"shape": [1], "data": [7.0]}


def _unknown_config_field(doc):
    doc["meta"]["config"]["sandwich"] = False


def _short_data(doc):
    doc["params"][sorted(doc["params"])[0]]["data"].pop()


def _meta_only_kind(doc):
    # the head's n_layers and the encoder's n_classes go; the flow model falls
    # back to a default config of other shapes
    doc["meta"] = {"kind": doc["meta"]["kind"]}


def _meta_not_object(doc):
    doc["meta"] = [doc["meta"]]


def _no_params(doc):
    del doc["params"]


def _not_json(doc):
    return json.dumps(doc)[:-1]


def _mistyped_config(doc):
    config = doc["meta"]["config"]
    name = next(k for k, v in sorted(config.items()) if type(v) in (int, float))
    config[name] = str(config[name])


def _invalid_config(doc):
    # well typed, but a value the config itself refuses
    invalid = {"flow-model": {"n_blocks": 0}, "alignment-head": {"mode": "sometimes"},
               "speaker-encoder": {"steps": 0}}
    doc["meta"]["config"].update(invalid[doc["meta"]["kind"]])


@pytest.mark.parametrize("which", sorted(SMALL))
def test_untampered_checkpoint_loads(which, tmp_path):
    build, load = SMALL[which]
    build().save(tmp_path / "ck.json")
    back = load(tmp_path / "ck.json")
    assert sorted(back.params) == sorted(build().params)


@pytest.mark.parametrize(
    "tamper",
    [_wrong_kind, _missing_param, _extra_param, _wrong_shape, _unknown_config_field,
     _short_data, _meta_only_kind, _no_params, _not_json, _mistyped_config, _invalid_config,
     _meta_not_object],
)
@pytest.mark.parametrize("which", sorted(SMALL))
def test_loader_rejects_bad_checkpoint(which, tamper, tmp_path):
    build, load = SMALL[which]
    path = tmp_path / "ck.json"
    build().save(path)
    doc = json.loads(path.read_text())
    path.write_text(tamper(doc) or json.dumps(doc))  # a tamper may return the file's text
    with pytest.raises(IntegrityError):
        load(path)


@st.composite
def param_dicts(draw):
    """Parameter dicts of 0-d, width-1 and wider arrays, some holding nan and inf."""
    names = draw(st.lists(st.text("abz_0é", min_size=1, max_size=6), max_size=5, unique=True))
    params = {}
    for name in names:
        shape = draw(st.sampled_from([(), (1,), (3,), (1, 1), (2, 1), (1, 4), (2, 3)]))
        values = draw(st.lists(st.floats(width=64), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        params[name] = Tensor(np.array(values, dtype=np.float64).reshape(shape))
    return params


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=param_dicts(), meta=st.sampled_from([None, {}, {"kind": "k", "config": {"n": 2}}]))
def test_streamed_checkpoint_is_the_whole_document(params, meta, tmp_path_factory):
    """The checkpoint written and hashed piece by piece is ``json.dumps`` of the
    whole document, and its hash that text's SHA-256."""
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    doc = {"meta": meta or {}, "params": {k: tensor_to_json(p) for k, p in params.items()}}
    whole = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert save_checkpoint(params, path, meta) == hashlib.sha256(whole).hexdigest()
    assert path.read_bytes() == whole
    bare = json.dumps({"meta": {}, "params": doc["params"]}, sort_keys=True).encode("utf-8")
    assert params_hash(params) == hashlib.sha256(bare).hexdigest()


def test_checkpoint_memory(tmp_path):
    """Writing or hashing the default flow model's checkpoint holds one parameter's
    text at a time: under 2 MiB of traced allocations each (15.3 MiB with the
    whole document built first)."""
    model = FlowModel(FlowConfig())
    _, peak = traced_peak(lambda: model.save(tmp_path / "model.json"))
    assert peak < 2 * 2**20, f"save: {peak / 2**20:.2f} MiB"
    _, peak = traced_peak(lambda: params_hash(model.params))
    assert peak < 2 * 2**20, f"params_hash: {peak / 2**20:.2f} MiB"
