"""Identity encoders: accuracy, freezing, embedding contract, round trips."""

import json

import numpy as np
import pytest

from flowalign.encoder import EncoderConfig, SpeakerEncoder, train_encoder
from flowalign.errors import ConfigurationError, IntegrityError, ShapeMismatchError
from flowalign.synth import DatasetConfig, generate_dataset

DATA = DatasetConfig(
    speakers=30, test_speakers=6, train_utterances=360, test_utterances=30, seed=11
)
ENC = EncoderConfig(steps=250, batch_size=128)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DATA)


@pytest.fixture(scope="module")
def trained(dataset):
    return train_encoder(dataset, ENC)


class TestTraining:
    def test_holdout_accuracy(self, trained):
        _, report = trained
        assert report["holdout_accuracy"] > 0.95

    def test_loss_decreased(self, trained):
        _, report = trained
        assert report["final_loss"] < 0.5 * report["first_loss"]

    def test_determinism(self, dataset, trained):
        enc, report = trained
        enc2, report2 = train_encoder(dataset, ENC)
        assert report2["params_hash"] == report["params_hash"]
        assert report2["holdout_accuracy"] == report["holdout_accuracy"]

    def test_variants_disagree(self, dataset, trained):
        enc_a, _ = trained
        enc_b, rep_b = train_encoder(
            dataset, EncoderConfig(hidden=96, embed_dim=24, seed=23, steps=250, name="encoder-b")
        )
        assert rep_b["holdout_accuracy"] > 0.95
        assert enc_b.config.embed_dim != enc_a.config.embed_dim
        u = dataset.test[0]
        ea = enc_a.embed(u.features[None], [u.valid_len]).data
        eb = enc_b.embed(u.features[None], [u.valid_len]).data
        assert ea.shape != eb.shape


class TestEmbedding:
    def test_unit_norm(self, dataset, trained):
        enc, _ = trained
        feats = np.stack([u.features[:32] for u in dataset.test[:8]])
        e = enc.embed(feats, np.full(8, 32)).data
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)

    def test_same_speaker_closer_than_other(self, dataset, trained):
        """Embeddings must separate identities, including unseen ones."""
        enc, _ = trained
        by_spk = {}
        for u in dataset.test:
            by_spk.setdefault(u.speaker_id, []).append(u)
        pairs = [v for v in by_spk.values() if len(v) >= 2][:6]
        same, diff = [], []
        for i, group in enumerate(pairs):
            a, b = group[0], group[1]
            ea = enc.embed(a.features[None], [a.valid_len]).data[0]
            eb = enc.embed(b.features[None], [b.valid_len]).data[0]
            same.append(float(ea @ eb))
            other = pairs[(i + 1) % len(pairs)][0]
            eo = enc.embed(other.features[None], [other.valid_len]).data[0]
            diff.append(float(ea @ eo))
        assert min(same) > max(diff)

    def test_embed_builds_no_graph(self, dataset, trained):
        enc, _ = trained
        u = dataset.test[0]
        e = enc.embed(u.features[None], [u.valid_len])
        assert e._backward is None and not e.requires_grad

    def test_shape_validation(self, trained):
        enc, _ = trained
        with pytest.raises(ShapeMismatchError):
            enc.embed(np.zeros((2, 5, 7)), [5, 5])
        with pytest.raises(ShapeMismatchError):
            enc.embed(np.zeros((5, 24)), [5])


class TestFreezing:
    def test_check_frozen_passes_after_training(self, trained):
        enc, _ = trained
        enc.check_frozen()

    def test_mutation_detected(self, dataset):
        enc, _ = train_encoder(
            dataset, EncoderConfig(steps=30, batch_size=64, seed=5, name="tiny")
        )
        enc.check_frozen()
        enc.params["w1"].data[0, 0] += 1e-9
        with pytest.raises(IntegrityError):
            enc.check_frozen()

    def test_unfrozen_rejected(self):
        enc = SpeakerEncoder(EncoderConfig(), n_classes=4)
        with pytest.raises(IntegrityError):
            enc.check_frozen()


class TestPersistence:
    def test_round_trip_bitwise(self, dataset, trained, tmp_path):
        enc, report = trained
        enc.save(tmp_path / "enc.json")
        back = SpeakerEncoder.load(tmp_path / "enc.json")
        back.check_frozen()
        assert back.frozen_hash == report["params_hash"]
        u = dataset.test[3]
        np.testing.assert_array_equal(
            back.embed(u.features[None], [u.valid_len]).data,
            enc.embed(u.features[None], [u.valid_len]).data,
        )

    def test_tampered_frozen_checkpoint_rejected(self, trained, tmp_path):
        enc, _ = trained
        path = tmp_path / "enc.json"
        enc.save(path)
        doc = json.loads(path.read_text())
        doc["params"]["w2"]["data"][3] += 1e-6
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(IntegrityError):
            SpeakerEncoder.load(path)

    def test_kind_guard(self, tmp_path):
        (tmp_path / "junk.json").write_text('{"meta": {"kind": "other"}, "params": {}}')
        with pytest.raises(IntegrityError):
            SpeakerEncoder.load(tmp_path / "junk.json")


class TestConstruction:
    def test_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            SpeakerEncoder(EncoderConfig(), n_classes=1)

    def test_holdout_cannot_swallow_training(self, dataset, monkeypatch):
        monkeypatch.setattr(EncoderConfig, "holdout_frac", 1.0)
        with pytest.raises(ConfigurationError):
            train_encoder(dataset, EncoderConfig())
