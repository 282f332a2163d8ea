"""Synthetic data: determinism, masking invariants, decodability, manifests."""

import json

import numpy as np
import pytest

from flowalign.errors import ConfigurationError, DegenerateInputError, DomainError, IntegrityError
from flowalign.synth import (
    PAD_TOKEN,
    DatasetConfig,
    SynthDataset,
    generate_dataset,
    make_batch,
    make_eval_batch,
    make_mixing_maps,
    make_speakers,
    pad_stack,
    read_manifest,
    synth_utterance,
    write_manifest,
)
from flowalign.tensor import Tensor


SMALL = DatasetConfig(
    speakers=24, test_speakers=6, train_utterances=90, test_utterances=30, seed=7
)


class StubEncoder:
    """Mean-pool stand-in with the embed() signature the batcher expects."""

    def embed(self, features, valid_len):
        lens = np.asarray(valid_len)
        T = features.shape[1]
        m = (np.arange(T)[None, :] < lens[:, None]).astype(np.float64)
        pooled = (features * m[..., None]).sum(axis=1) / lens[:, None]
        return Tensor(pooled)


class TestSpeakers:
    def test_unit_norm_and_separation(self):
        spk = make_speakers(40, 16, seed=0)
        lat = np.stack([s.latent for s in spk])
        np.testing.assert_allclose(np.linalg.norm(lat, axis=1), 1.0, atol=1e-12)
        gram = np.abs(lat @ lat.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() <= np.cos(np.deg2rad(5.0)) + 1e-12
        assert [s.speaker_id for s in spk] == list(range(40))

    def test_determinism(self):
        a = make_speakers(10, 8, seed=3)
        b = make_speakers(10, 8, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.latent, y.latent)

    def test_too_few_speakers(self):
        with pytest.raises(ConfigurationError):
            make_speakers(1, 8, seed=0)

    def test_impossible_packing(self):
        # 50 lines through the origin of the plane cannot all stay 5 degrees apart
        with pytest.raises(ConfigurationError):
            make_speakers(50, 2, seed=0)


class TestUtterance:
    def setup_method(self):
        self.maps = make_mixing_maps(SMALL, seed=1)
        self.spk = make_speakers(4, SMALL.latent_dim, seed=2)

    def test_shape_and_frames_per_token(self):
        u = synth_utterance(self.spk[0], [1, 2, 3], 0.1, 0, self.maps)
        assert u.features.shape == (12, SMALL.feat_dim)
        assert u.valid_len == 12

    def test_noiseless_structure(self):
        # with no noise, a frame is exactly content + identity
        u = synth_utterance(self.spk[1], [5, 9], 0.0, 0, self.maps)
        want0 = (
            self.maps.token_table[5] @ self.maps.content_map
            + self.spk[1].latent @ self.maps.identity_map
        )
        np.testing.assert_allclose(u.features[0], want0, atol=1e-15)
        np.testing.assert_allclose(u.features[3], want0, atol=1e-15)

    def test_token_validation(self):
        with pytest.raises(DomainError):
            synth_utterance(self.spk[0], [0, SMALL.vocab], 0.1, 0, self.maps)
        with pytest.raises(DomainError):
            synth_utterance(self.spk[0], [-1], 0.1, 0, self.maps)
        with pytest.raises(DegenerateInputError):
            synth_utterance(self.spk[0], [], 0.1, 0, self.maps)


class TestDataset:
    def test_split_sizes_and_disjoint_speakers(self):
        ds = generate_dataset(SMALL)
        assert len(ds.train) == 90 and len(ds.test) == 30
        train_ids = {s.speaker_id for s in ds.speakers_train}
        test_ids = {s.speaker_id for s in ds.speakers_test}
        assert not (train_ids & test_ids)
        assert {u.speaker_id for u in ds.train} <= train_ids
        assert {u.speaker_id for u in ds.test} <= test_ids

    def test_every_speaker_covered(self):
        ds = generate_dataset(SMALL)
        assert {u.speaker_id for u in ds.train} == {s.speaker_id for s in ds.speakers_train}

    def test_determinism_bitwise(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        for ua, ub in zip(a.train + a.test, b.train + b.test):
            assert ua.speaker_id == ub.speaker_id
            assert np.array_equal(ua.features, ub.features)

    def test_bad_configs(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(DatasetConfig(speakers=10, test_speakers=10))
        with pytest.raises(ConfigurationError):
            generate_dataset(DatasetConfig(speakers=12, test_speakers=11))
        with pytest.raises(ConfigurationError):
            generate_dataset(DatasetConfig(tokens_min=5, tokens_max=4))

    def test_identity_linearly_decodable(self):
        """Pooled features must recover the speaker latent almost exactly."""
        ds = generate_dataset(SMALL)
        utts = ds.train
        pooled = np.stack([u.features.mean(axis=0) for u in utts])
        lat = np.stack(
            [ds.all_speakers[u.speaker_id].latent for u in utts]
        )
        w, *_ = np.linalg.lstsq(pooled, lat, rcond=None)
        pred = pooled @ w
        # nearest-latent classification over all speakers
        all_lat = np.stack([s.latent for s in ds.all_speakers])
        choice = np.argmax(pred @ all_lat.T, axis=1)
        truth = np.array([u.speaker_id for u in utts])
        assert np.mean(choice == truth) > 0.95

    def test_content_linearly_decodable(self):
        """Token identity must be recoverable from its pooled frames.

        Centering each utterance removes the constant per-speaker offset,
        leaving the content component for a linear probe.
        """
        fpt = SMALL.frames_per_token
        ds = generate_dataset(SMALL)
        frames, labels = [], []
        for u in ds.train:
            um = u.features.mean(axis=0)
            for i, tok in enumerate(u.content_tokens):
                frames.append(u.features[i * fpt : (i + 1) * fpt].mean(axis=0) - um)
                labels.append(tok)
        frames = np.stack(frames)
        labels = np.array(labels)
        onehot = np.eye(SMALL.vocab)[labels]
        w, *_ = np.linalg.lstsq(frames, onehot, rcond=None)
        acc = np.mean(np.argmax(frames @ w, axis=1) == labels)
        assert acc > 0.95


class TestBatching:
    def setup_method(self):
        self.ds = generate_dataset(SMALL)
        self.enc = StubEncoder()

    def test_mask_contiguous_and_inside_valid(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            idx = rng.integers(0, len(self.ds.train), size=6)
            batch = make_batch([self.ds.train[i] for i in idx], self.enc, rng)
            T = batch.mask.shape[1]
            assert not np.any(batch.mask * (np.arange(T) >= batch.valid_len[:, None]))
            for b in range(6):
                row = batch.mask[b]
                s, e = batch.span[b]
                assert row[s:e].all() and row[:s].sum() == 0 and row[e:].sum() == 0
                assert e <= batch.valid_len[b]

    def test_mask_fraction_within_range(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            idx = rng.integers(0, len(self.ds.train), size=8)
            batch = make_batch([self.ds.train[i] for i in idx], self.enc, rng)
            frac = batch.mask.sum(axis=1) / batch.valid_len
            assert np.all(frac >= 0.3 - 1.0 / batch.valid_len)
            assert np.all(frac <= 0.9 + 1.0 / batch.valid_len)

    def test_full_mask_rejected(self):
        # every span of a one-frame utterance masks all of it, so no draw is kept
        one_frame = [synth_utterance(self.ds.speakers_train[0], [3], 0.1, 0, self.ds.maps,
                                     frames_per_token=1)]
        with pytest.raises(ConfigurationError, match="no unmasked frames"):
            make_batch(one_frame, self.enc, 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(DegenerateInputError):
            make_batch([], self.enc, 0)

    def test_cond_is_prompt_embedding(self):
        batch = make_batch(self.ds.train[:5], self.enc, 3)
        want = np.asarray(
            self.enc.embed(batch.prompt_features, batch.prompt_len).data
        )
        np.testing.assert_array_equal(batch.cond, want)

    def test_prompt_excludes_masked_frames(self):
        batch = make_batch(self.ds.train[:5], self.enc, 4)
        for b, u in enumerate(self.ds.train[:5]):
            s, e = batch.span[b]
            keep = np.ones(u.valid_len, dtype=bool)
            keep[s:e] = False
            want = u.features[:u.valid_len][keep]
            n = want.shape[0]
            assert n == batch.prompt_len[b]
            np.testing.assert_array_equal(batch.prompt_features[b, :n], want)

    def test_cond_tokens_padded(self):
        batch = make_batch(self.ds.train[:6], self.enc, 5)
        for b, u in enumerate(self.ds.train[:6]):
            n = len(u.content_tokens)
            np.testing.assert_array_equal(batch.cond_tokens[b, :n], u.content_tokens)
            assert np.all(batch.cond_tokens[b, n:] == PAD_TOKEN)

    def test_eval_batch_masks_tail(self):
        batch = make_eval_batch(self.ds.test[:5], self.enc, fraction=0.5)
        for b in range(5):
            L = batch.valid_len[b]
            s, e = batch.span[b]
            assert e == L
            assert s == max(1, L - int(round(0.5 * L)))
            assert batch.mask[b, s:e].all()
        with pytest.raises(ConfigurationError):
            make_eval_batch(self.ds.test[:2], self.enc, fraction=1.0)

    def test_pad_stack(self):
        arrs = [np.ones((2, 3)), np.full((4, 3), 2.0)]
        out = pad_stack(arrs)
        assert out.shape == (2, 4, 3)
        assert np.all(out[0, 2:] == 0)


class TestManifest:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_dataset(SMALL)
        h1 = write_manifest(ds, tmp_path / "data")
        back, h2 = read_manifest(tmp_path / "data")
        assert h1 == h2
        assert back.config == SMALL
        assert len(back.train) == len(ds.train)
        for ua, ub in zip(ds.train + ds.test, back.train + back.test):
            assert ua.speaker_id == ub.speaker_id
            assert np.array_equal(ua.content_tokens, ub.content_tokens)
            assert np.array_equal(ua.features, ub.features)
        for sa, sb in zip(ds.all_speakers, back.all_speakers):
            assert np.array_equal(sa.latent, sb.latent)

    def test_hash_sensitive_to_content(self, tmp_path):
        ds = generate_dataset(SMALL)
        h1 = write_manifest(ds, tmp_path / "d1")
        blob = (tmp_path / "d1" / "features.bin").read_bytes()
        flipped = bytes([blob[0] ^ 1]) + blob[1:]
        (tmp_path / "d1" / "features.bin").write_bytes(flipped)
        _, h2 = read_manifest(tmp_path / "d1")
        assert h1 != h2

    def test_same_config_same_hash(self, tmp_path):
        h1 = write_manifest(generate_dataset(SMALL), tmp_path / "a")
        h2 = write_manifest(generate_dataset(SMALL), tmp_path / "b")
        assert h1 == h2


def _unknown_config_key(manifest, blob):
    header = json.loads(manifest[0])
    header["config"]["sandwich"] = False
    return [json.dumps(header), *manifest[1:]], blob


def _valid_len_off_its_bytes(manifest, blob):
    rec = json.loads(manifest[1])
    rec["valid_len"] -= 1
    return [manifest[0], json.dumps(rec), *manifest[2:]], blob


def _short_blob(manifest, blob):
    return manifest, blob[:-8]


@pytest.mark.parametrize("tamper", [_unknown_config_key, _valid_len_off_its_bytes, _short_blob])
def test_malformed_manifest_rejected(tamper, tmp_path):
    write_manifest(generate_dataset(SMALL), tmp_path)
    manifest, blob = tamper(
        (tmp_path / "manifest.jsonl").read_text().splitlines(),
        (tmp_path / "features.bin").read_bytes(),
    )
    (tmp_path / "manifest.jsonl").write_text("\n".join(manifest) + "\n")
    (tmp_path / "features.bin").write_bytes(blob)
    with pytest.raises(IntegrityError):
        read_manifest(tmp_path)
