"""Preference pairs and their fixed-dimension context embeddings.

Texts are embedded with a deterministic signed feature-hashing encoder over
word unigrams and padded character trigrams, L2-normalised.  A (prompt,
response) pair of encodings e, e' is fused into one context vector by the
single-layer tanh MLP of :class:`FusionParams` applied to [e + e'; |e - e'|],
which makes the context invariant to swapping the two responses; the offline
router trains that layer through the same :meth:`FusionParams.apply`.  Real
sentence encoders can be plugged in through the :class:`TextEncoder`
protocol, or their vectors can be precomputed and loaded from a JSONL file.
:func:`row_norms` is the package's one Euclidean row norm, safe from
overflow and underflow, for the simulator's contexts and ``inspect``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Protocol

import numpy as np

from .errors import ConfigError, DimError, FormatError, InputError, NumericalError
from .serialize import int_field, iter_jsonl, write_jsonl

DEFAULT_ENCODER_DIM = 256
DEFAULT_EMBED_DIM = 64
INIT_SCALE = 0.02  # standard deviation of the initial fusion and head weights
_SQRT_TINY = np.sqrt(np.finfo(np.float64).tiny)  # h.h is subnormal or 0 below this norm

_LABELS = ("A", "B")


@dataclass
class PreferencePair:
    """A prompt with two candidate responses and an optional preference label."""

    pair_id: str
    prompt: str
    response_a: str
    response_b: str
    label: str | None = None

    def __post_init__(self) -> None:
        for name in ("pair_id", "prompt", "response_a", "response_b"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise InputError(f"{name} must be a non-empty string")
        if self.label is not None and self.label not in _LABELS:
            raise InputError(f"label must be one of {_LABELS} or None, got {self.label!r}")


@dataclass
class PairEmbedding:
    """Finite context vector for one preference pair."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise DimError(f"embedding must be a vector, got shape {self.vector.shape}")
        if not np.all(np.isfinite(self.vector)):
            raise NumericalError("embedding contains non-finite values")

    @property
    def d(self) -> int:
        return self.vector.shape[0]


class TextEncoder(Protocol):
    dim: int

    def encode(self, text: str) -> np.ndarray: ...


class HashingEncoder:
    """Deterministic signed feature hashing over word unigrams and char trigrams.

    The text is padded with two spaces on each side before trigram extraction
    so any non-empty input yields at least one feature.  Bucket and sign come
    from a keyed blake2b digest, so vectors are stable across processes and
    platforms.  Output is L2-normalised.
    """

    def __init__(self, dim: int = DEFAULT_ENCODER_DIM):
        self.dim = int_field(dim, "encoder dim", ConfigError, minimum=2)

    def encode(self, text: str) -> np.ndarray:
        if not (isinstance(text, str) and text):
            raise InputError(f"text to encode must be a non-empty string, got {text!r}")
        vec = np.zeros(self.dim)
        padded = f"  {text}  "
        tokens: list[str] = [f"w\x00{w}" for w in text.split()]
        tokens.extend(f"c\x00{padded[i:i + 3]}" for i in range(len(padded) - 2))
        try:
            for token in tokens:
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                h = int.from_bytes(digest, "little")
                sign = 1.0 if h & (1 << 63) else -1.0
                vec[(h & ((1 << 63) - 1)) % self.dim] += sign
        except UnicodeEncodeError as exc:  # a lone surrogate, such as JSON's "\ud800"
            raise InputError(f"text to encode is not valid Unicode: {exc}") from exc
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:  # all hashed counts cancelled; fall back to a unit bump
            vec[0] = 1.0
            norm = 1.0
        return vec / norm


def encode_text(text: str, dim: int = DEFAULT_ENCODER_DIM) -> np.ndarray:
    return HashingEncoder(dim).encode(text)


@dataclass
class FusionParams:
    """Single-layer MLP fusing the two response encodings into one context:
    tanh(x @ weight.T + bias) for each pre-fusion row x."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimError(f"weight must be 2-d, got shape {self.weight.shape}")
        if self.weight.shape[1] % 2 != 0:
            raise DimError("weight column count must be 2 * encoder_dim (even)")
        if self.bias.shape != (self.weight.shape[0],):
            raise DimError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def encoder_dim(self) -> int:
        return self.weight.shape[1] // 2

    def apply(self, prefusion: np.ndarray) -> np.ndarray:
        """The fused context of one pre-fusion vector, or one row per row of a matrix."""
        return np.tanh(prefusion @ self.weight.T + self.bias)

    @classmethod
    def random_init(
        cls, out_dim: int, encoder_dim: int, rng: np.random.Generator, scale: float = INIT_SCALE
    ) -> "FusionParams":
        return cls(
            weight=scale * rng.standard_normal((out_dim, 2 * encoder_dim)),
            bias=np.zeros(out_dim),
        )


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a 2-d array, finite wherever the true norm is.

    A row's norm is sqrt(h.h), one dot product per row as ``np.linalg.norm(row)``
    forms it (``np.linalg.norm(axis=1)`` can differ in the last bit).  h.h
    overflows to inf once an entry passes about 1e154, and once every entry
    is below about 1e-154 it underflows to 0 or to a subnormal that has lost
    digits; a nonzero row whose h.h is inf or below the smallest normal float
    is divided by its largest |entry| first.  A zero row's norm is 0, and a
    row with an infinite entry keeps an infinite norm.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None]).ravel())
    redo = np.flatnonzero((norms < _SQRT_TINY) | (norms == np.inf))
    if len(redo):
        scale = np.max(np.abs(vectors[redo]), axis=1, initial=0.0)
        keep = (0.0 < scale) & (scale < np.inf)
        redo, scale = redo[keep], scale[keep]
        # the rescaled rows' largest |entry| is 1, so their h.h lies in [1, d]
        with np.errstate(over="ignore"):  # a norm past float64 is inf
            norms[redo] = scale * row_norms(vectors[redo] / scale[:, None])
    return norms


def prefusion_vector(pair: PreferencePair, encoder: TextEncoder) -> np.ndarray:
    """[e + e'; |e - e'|] for the two prompt||response encodings."""
    e_a = encoder.encode(pair.prompt + "\n" + pair.response_a)
    e_b = encoder.encode(pair.prompt + "\n" + pair.response_b)
    return np.concatenate([e_a + e_b, np.abs(e_a - e_b)])


def embed_pair(
    pair: PreferencePair,
    params: FusionParams,
    encoder: TextEncoder | None = None,
) -> PairEmbedding:
    if encoder is None:
        encoder = HashingEncoder(params.encoder_dim)
    if encoder.dim != params.encoder_dim:
        raise DimError(
            f"encoder dim {encoder.dim} does not match fusion encoder_dim {params.encoder_dim}"
        )
    return PairEmbedding(params.apply(prefusion_vector(pair, encoder)))


# ---------------------------------------------------------------------------
# file formats: dataset JSONL and embedding JSONL


def load_dataset(path) -> list[PreferencePair]:
    """Read pairs from JSONL rows {pair_id, prompt, response_a, response_b, label?}."""
    pairs: list[PreferencePair] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        try:
            pair = PreferencePair(
                pair_id=obj["pair_id"],
                prompt=obj["prompt"],
                response_a=obj["response_a"],
                response_b=obj["response_b"],
                label=obj.get("label"),
            )
        except KeyError as exc:
            raise FormatError(f"dataset row missing key {exc}", line=lineno) from exc
        except InputError as exc:
            raise FormatError(f"invalid dataset row: {exc}", line=lineno) from exc
        if pair.pair_id in seen:
            raise FormatError(f"duplicate pair_id {pair.pair_id!r}", line=lineno)
        seen.add(pair.pair_id)
        pairs.append(pair)
    return pairs


def save_dataset(path, pairs: Iterable[PreferencePair]) -> None:
    """Write the JSONL rows :func:`load_dataset` reads; an unlabelled pair's row has no label."""
    write_jsonl(path, ({k: v for k, v in asdict(pair).items() if v is not None} for pair in pairs))


def load_embeddings(path) -> dict[str, PairEmbedding]:
    """Read embeddings from JSONL rows {pair_id, vector}; dimensions must agree."""
    out: dict[str, PairEmbedding] = {}
    expected_d: int | None = None
    for lineno, obj in iter_jsonl(path):
        if not (isinstance(obj.get("pair_id"), str) and "vector" in obj):
            raise FormatError("embedding row must have a string pair_id and a vector", line=lineno)
        pair_id = obj["pair_id"]
        if pair_id in out:
            raise FormatError(f"duplicate pair_id {pair_id!r}", line=lineno)
        try:
            emb = PairEmbedding(obj["vector"])
        except (TypeError, ValueError, DimError, NumericalError) as exc:
            raise FormatError(f"invalid vector: {exc}", line=lineno) from exc
        if expected_d is None:
            if emb.d < 1:
                raise FormatError("embedding vector must not be empty", line=lineno)
            expected_d = emb.d
        elif emb.d != expected_d:
            raise FormatError(
                f"inconsistent dimension: expected {expected_d}, got {emb.d}", line=lineno
            )
        out[pair_id] = emb
    return out


def save_embeddings(path, embeddings: Mapping[str, PairEmbedding]) -> None:
    write_jsonl(path, ({"pair_id": pair_id, "vector": emb.vector.tolist()}
                       for pair_id, emb in embeddings.items()))
