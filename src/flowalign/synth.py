"""Synthetic identity-conditioned sequence benchmark.

"Speakers" are unit-norm latent vectors, "utterances" are token-driven
feature sequences with the speaker latent mixed into every frame, and
training batches mask a contiguous span of frames for the model to
reconstruct. The construction is linear plus Gaussian noise, so identity
and content are decodable by elementary oracles; the tests rely on that
to prove the benchmark carries the signal the training loop is supposed
to align.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError, IntegrityError
from .serialize import config_from_json, feed

PAD_TOKEN = -1

_MAX_SPAN_RESAMPLES = 32
MASK_FRACTION_RANGE = (0.3, 0.9)  # a training span's share of its utterance
MIN_SPEAKER_ANGLE_DEG = 5.0


@dataclass
class DatasetConfig:
    """Knobs for one reproducible dataset draw."""

    speakers: int = 237
    test_speakers: int = 37
    latent_dim: int = 16
    feat_dim: int = 24
    vocab: int = 32
    token_dim: int = 8
    frames_per_token: int = 4
    tokens_min: int = 8
    tokens_max: int = 24
    noise_scale: float = 0.1
    train_utterances: int = 2000
    test_utterances: int = 500
    seed: int = 0

    def validate(self):
        if self.test_speakers >= self.speakers:
            raise ConfigurationError(
                f"test_speakers={self.test_speakers} must be < speakers={self.speakers}"
            )
        if self.speakers - self.test_speakers < 2:
            raise ConfigurationError("need at least 2 training speakers")
        if self.tokens_min < 1 or self.tokens_max < self.tokens_min:
            raise ConfigurationError("token length range is empty")
        if self.noise_scale < 0:
            raise ConfigurationError("noise_scale must be >= 0")


@dataclass
class SpeakerSpec:
    speaker_id: int
    latent: np.ndarray  # unit norm, shape (latent_dim,)


@dataclass
class Utterance:
    speaker_id: int
    content_tokens: np.ndarray  # (T_c,) ints in [0, vocab)
    features: np.ndarray  # (T, feat_dim), T = frames_per_token * T_c
    valid_len: int


@dataclass
class MixingMaps:
    """Dataset-level fixed maps: token table plus content/identity mixers."""

    token_table: np.ndarray  # (vocab, token_dim), unit-norm rows
    content_map: np.ndarray  # (token_dim, feat_dim)
    identity_map: np.ndarray  # (latent_dim, feat_dim)


def make_speakers(count: int, dim: int, seed) -> list[SpeakerSpec]:
    """Sample ``count`` unit-norm latents at least ``MIN_SPEAKER_ANGLE_DEG`` apart.

    Violating vectors are resampled; if the sphere cannot accommodate the
    requested packing the loop gives up with a configuration error.
    """
    if count < 2:
        raise ConfigurationError("need at least 2 speakers")
    if dim < 2:
        raise ConfigurationError("latent_dim must be >= 2")
    rng = np.random.default_rng(seed)
    cos_floor = np.cos(np.deg2rad(MIN_SPEAKER_ANGLE_DEG))
    latents = rng.normal(size=(count, dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    for _ in range(200 * count):
        gram = np.abs(latents @ latents.T)
        np.fill_diagonal(gram, 0.0)
        bad = np.flatnonzero(gram.max(axis=1) > cos_floor)
        if bad.size == 0:
            return [SpeakerSpec(i, latents[i].copy()) for i in range(count)]
        v = rng.normal(size=dim)
        latents[bad[0]] = v / np.linalg.norm(v)
    raise ConfigurationError(
        f"cannot pack {count} latents in {dim} dims with {MIN_SPEAKER_ANGLE_DEG} deg separation"
    )


def make_mixing_maps(config: DatasetConfig, seed) -> MixingMaps:
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(config.vocab, config.token_dim))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    content = rng.normal(0.0, 1.0 / np.sqrt(config.token_dim), size=(config.token_dim, config.feat_dim))
    identity = rng.normal(0.0, 1.0 / np.sqrt(config.latent_dim), size=(config.latent_dim, config.feat_dim))
    return MixingMaps(table, content, identity)


def synth_utterance(
    spk: SpeakerSpec,
    tokens,
    noise_scale: float,
    seed,
    maps: MixingMaps,
    frames_per_token: int = 4,
) -> Utterance:
    """Render one utterance: per-frame token content plus the speaker latent.

    features[t] = token_table[tok(t)] @ content_map
                + latent @ identity_map + noise_scale * eps[t]
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    vocab = maps.token_table.shape[0]
    if tokens.size == 0:
        raise DegenerateInputError("utterance needs at least one token")
    if np.any(tokens < 0) or np.any(tokens >= vocab):
        raise DomainError(f"token id outside [0, {vocab})")
    if noise_scale < 0:
        raise DomainError("noise_scale must be >= 0")
    rng = np.random.default_rng(seed)
    content = maps.token_table[tokens] @ maps.content_map
    frames = np.repeat(content, frames_per_token, axis=0)
    frames = frames + spk.latent @ maps.identity_map
    if noise_scale > 0:
        frames = frames + noise_scale * rng.normal(size=frames.shape)
    return Utterance(spk.speaker_id, tokens, frames, frames.shape[0])


@dataclass
class SynthDataset:
    config: DatasetConfig
    speakers_train: list[SpeakerSpec]
    speakers_test: list[SpeakerSpec]
    train: list[Utterance]
    test: list[Utterance]
    maps: MixingMaps

    @property
    def all_speakers(self) -> list[SpeakerSpec]:
        return self.speakers_train + self.speakers_test


def _draw_split(speakers, n_utts, config, maps, rng) -> list[Utterance]:
    # Round-robin speaker assignment guarantees coverage; order shuffled.
    order = np.arange(n_utts) % len(speakers)
    rng.shuffle(order)
    utts = []
    for idx in order:
        spk = speakers[idx]
        n_tok = int(rng.integers(config.tokens_min, config.tokens_max + 1))
        tokens = rng.integers(0, config.vocab, size=n_tok)
        utts.append(
            synth_utterance(
                spk, tokens, config.noise_scale, rng, maps, config.frames_per_token
            )
        )
    return utts


def generate_dataset(config: DatasetConfig) -> SynthDataset:
    """Deterministically generate the full train/test dataset from its config."""
    config.validate()
    ss = np.random.SeedSequence(config.seed)
    spk_seed, maps_seed, train_seed, test_seed = ss.spawn(4)
    speakers = make_speakers(config.speakers, config.latent_dim, spk_seed)
    maps = make_mixing_maps(config, maps_seed)
    train_spk = speakers[: config.speakers - config.test_speakers]
    test_spk = speakers[config.speakers - config.test_speakers :]
    train = _draw_split(
        train_spk, config.train_utterances, config, maps, np.random.default_rng(train_seed)
    )
    test = _draw_split(
        test_spk, config.test_utterances, config, maps, np.random.default_rng(test_seed)
    )
    return SynthDataset(config, train_spk, test_spk, train, test, maps)


# -- batching ------------------------------------------------------------------


@dataclass
class TrainBatch:
    """One masked-reconstruction batch.

    ``mask`` is 1 on frames the model must predict and 0 on context and
    padding; ``cond`` is the identity embedding of each item's unmasked
    (prompt) region.
    """

    x1: np.ndarray  # (B, T, feat_dim)
    cond_tokens: np.ndarray  # (B, T_c) ints, PAD_TOKEN beyond each item
    cond: np.ndarray  # (B, embed_dim)
    mask: np.ndarray  # (B, T) in {0, 1}
    valid_len: np.ndarray  # (B,)
    speaker_ids: np.ndarray  # (B,)
    prompt_features: np.ndarray  # (B, T_p, feat_dim) gathered unmasked frames
    prompt_len: np.ndarray  # (B,)
    span: np.ndarray  # (B, 2) masked [start, end) per item


def pad_stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Stack variable-length leading-axis arrays, padding with zeros."""
    n = len(arrays)
    t = max(a.shape[0] for a in arrays)
    out = np.zeros((n, t) + arrays[0].shape[1:], dtype=np.float64)
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
    return out


def _draw_span(length: int, rng) -> tuple[int, int]:
    lo, hi = MASK_FRACTION_RANGE
    for _ in range(_MAX_SPAN_RESAMPLES):
        span = max(1, int(round(rng.uniform(lo, hi) * length)))
        if span >= length:
            continue  # a fully masked item has no prompt; resample
        start = int(rng.integers(0, length - span + 1))
        return start, start + span
    raise ConfigurationError(
        f"mask fraction range [{lo}, {hi}] leaves no unmasked frames at length {length}"
    )


def _build_batch(utterances: list[Utterance], encoder, spans) -> TrainBatch:
    """Pad the items, mask each one's [s, e) span and embed the rest as its prompt."""
    if not utterances:
        raise DegenerateInputError("a batch needs at least one utterance")
    B = len(utterances)
    T = max(u.valid_len for u in utterances)
    Tc = max(len(u.content_tokens) for u in utterances)

    x1 = pad_stack([u.features for u in utterances])
    cond_tokens = np.full((B, Tc), PAD_TOKEN, dtype=np.int64)
    mask = np.zeros((B, T), dtype=np.float64)
    valid_len = np.array([u.valid_len for u in utterances], dtype=np.int64)
    span = np.array(spans, dtype=np.int64).reshape(B, 2)
    prompt_len = valid_len - (span[:, 1] - span[:, 0])
    prompt_features = np.zeros((B, int(prompt_len.max()), x1.shape[2]))
    for b, (u, (s, e)) in enumerate(zip(utterances, spans)):
        cond_tokens[b, : len(u.content_tokens)] = u.content_tokens
        mask[b, s:e] = 1.0
        prompt_features[b, :s] = u.features[:s]
        prompt_features[b, s : prompt_len[b]] = u.features[e : u.valid_len]
    cond = np.asarray(encoder.embed(prompt_features, prompt_len).data)

    return TrainBatch(
        x1=x1,
        cond_tokens=cond_tokens,
        cond=cond,
        mask=mask,
        valid_len=valid_len,
        speaker_ids=np.array([u.speaker_id for u in utterances], dtype=np.int64),
        prompt_features=prompt_features,
        prompt_len=prompt_len,
        span=span,
    )


def make_batch(utterances: list[Utterance], encoder, seed) -> TrainBatch:
    """Batch utterances with one contiguous masked span per item.

    The condition vector is ``encoder.embed`` applied to each item's
    unmasked frames, exactly the prompt a zero-shot sampler would see.
    """
    rng = np.random.default_rng(seed)
    spans = [_draw_span(u.valid_len, rng) for u in utterances]
    return _build_batch(utterances, encoder, spans)


def make_eval_batch(
    utterances: list[Utterance], encoder, fraction: float = 0.5
) -> TrainBatch:
    """Deterministic continuation-style batch: mask the trailing ``fraction``.

    Used at evaluation time so every checkpoint sees identical prompts.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError("eval mask fraction must be in (0, 1)")
    spans = [
        (max(1, u.valid_len - int(round(fraction * u.valid_len))), u.valid_len)
        for u in utterances
    ]
    return _build_batch(utterances, encoder, spans)


# -- manifest I/O --------------------------------------------------------------


def _utterances(dataset: SynthDataset):
    """(split, utterance) in manifest order: the train split, then the test split."""
    for split, group in (("train", dataset.train), ("test", dataset.test)):
        for u in group:
            yield split, u


def _manifest_lines(dataset: SynthDataset):
    """manifest.jsonl's lines in file order, each with its newline, as bytes.

    A record's ``offset`` is the running sum of the ``nbytes`` before it, so
    the records cover features.bin in order, end to end.
    """
    header = {
        "kind": "synth-identity-sequences",
        "config": asdict(dataset.config),
        "feature_blob": "features.bin",
        "speakers": [
            {"speaker_id": s.speaker_id, "latent": s.latent.tolist(), "split": split}
            for split, group in (("train", dataset.speakers_train), ("test", dataset.speakers_test))
            for s in group
        ],
        "maps": {
            "token_table": dataset.maps.token_table.tolist(),
            "content_map": dataset.maps.content_map.tolist(),
            "identity_map": dataset.maps.identity_map.tolist(),
        },
    }
    yield (json.dumps(header, sort_keys=True) + "\n").encode()
    offset = 0
    for split, u in _utterances(dataset):
        nbytes = 8 * u.features.size
        rec = {
            "split": split,
            "speaker_id": int(u.speaker_id),
            "tokens": [int(t) for t in u.content_tokens],
            "valid_len": int(u.valid_len),
            "offset": offset,
            "nbytes": nbytes,
        }
        yield (json.dumps(rec, sort_keys=True) + "\n").encode()
        offset += nbytes


def _feature_pieces(dataset: SynthDataset):
    """features.bin in file order: each utterance's frames as little-endian float64."""
    for _, u in _utterances(dataset):
        yield u.features.astype("<f8").tobytes()


def manifest_hash(dataset: SynthDataset) -> str:
    """The hash ``write_manifest`` returns for ``dataset``, with nothing written."""
    digest = hashlib.sha256()
    feed(digest, _manifest_lines(dataset))
    feed(digest, _feature_pieces(dataset))
    return digest.hexdigest()


def write_manifest(dataset: SynthDataset, out_dir) -> str:
    """Write manifest.jsonl plus a binary feature blob; returns dataset hash.

    The hash is the SHA-256 of manifest.jsonl's bytes followed by
    features.bin's, fed as they are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with open(out / "manifest.jsonl", "wb") as f:
        feed(digest, _manifest_lines(dataset), f.write)
    with open(out / "features.bin", "wb") as f:
        feed(digest, _feature_pieces(dataset), f.write)
    return digest.hexdigest()


def read_manifest(in_dir) -> tuple[SynthDataset, str]:
    """Load a dataset directory; returns (dataset, dataset_hash).

    A line that is not JSON, a header config with a field ``DatasetConfig``
    lacks, a value of the wrong type or a combination ``validate`` refuses,
    a record whose bytes do not hold its ``valid_len`` frames right after
    the record before it, and a feature blob with bytes no record holds
    raise ``IntegrityError``. The hash is fed with the manifest's lines and
    then each record's bytes as they are read, so it is the SHA-256 of the
    two files.
    """
    src = Path(in_dir)
    digest = hashlib.sha256()
    with open(src / "manifest.jsonl", "rb") as f:
        lines = list(f)
    feed(digest, lines)
    try:
        header, *records = [json.loads(line) for line in lines]
        config = config_from_json(DatasetConfig, header["config"], "manifest")
        config.validate()
    except (ValueError, KeyError, TypeError) as e:  # ConfigurationError is a ValueError
        raise IntegrityError(f"{src / 'manifest.jsonl'} has a malformed line: {e}") from e
    spk_by_split = {"train": [], "test": []}
    for s in header["speakers"]:
        spk_by_split[s["split"]].append(
            SpeakerSpec(int(s["speaker_id"]), np.array(s["latent"], dtype=np.float64))
        )
    maps = MixingMaps(
        np.array(header["maps"]["token_table"], dtype=np.float64),
        np.array(header["maps"]["content_map"], dtype=np.float64),
        np.array(header["maps"]["identity_map"], dtype=np.float64),
    )
    splits = {"train": [], "test": []}
    end = 0  # bytes of features.bin read so far
    with open(src / "features.bin", "rb") as blob:
        for rec in records:
            offset, nbytes, n = rec["offset"], rec["nbytes"], rec["valid_len"]
            fits = offset == end and n >= 0 and nbytes == 8 * n * config.feat_dim
            feats = np.empty((n if fits else 0, config.feat_dim), dtype="<f8")
            if not fits or blob.readinto(feats) != nbytes:
                raise IntegrityError(
                    f"manifest record at offset {offset} does not hold the {n} frames"
                    f" at byte {end} of features.bin"
                )
            digest.update(feats)
            end += nbytes
            splits[rec["split"]].append(
                Utterance(
                    rec["speaker_id"],
                    np.array(rec["tokens"], dtype=np.int64),
                    feats,
                    rec["valid_len"],
                )
            )
        if blob.read(1):
            raise IntegrityError(f"features.bin holds bytes past the {end} its records hold")
    ds = SynthDataset(
        config, spk_by_split["train"], spk_by_split["test"], splits["train"], splits["test"], maps
    )
    return ds, digest.hexdigest()
