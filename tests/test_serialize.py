"""Checkpoint loading: every loader refuses a checkpoint that does not fit."""

import json

import pytest

from flowalign.alignment import AlignConfig, AlignmentHead
from flowalign.encoder import EncoderConfig, SpeakerEncoder
from flowalign.errors import IntegrityError
from flowalign.flow import FlowConfig, FlowModel

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


@pytest.mark.parametrize("which", sorted(SMALL))
def test_untampered_checkpoint_loads(which, tmp_path):
    build, load = SMALL[which]
    build().save(tmp_path / "ck.json")
    back = load(tmp_path / "ck.json")
    assert sorted(back.params) == sorted(build().params)


@pytest.mark.parametrize(
    "tamper", [_wrong_kind, _missing_param, _extra_param, _wrong_shape, _unknown_config_field]
)
@pytest.mark.parametrize("which", sorted(SMALL))
def test_loader_rejects_bad_checkpoint(which, tamper, tmp_path):
    build, load = SMALL[which]
    path = tmp_path / "ck.json"
    build().save(path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load(path)
