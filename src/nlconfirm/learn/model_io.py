"""Trained-model bundle and its on-disk format.

Binary layout: magic ``NLCM``, u32 format version, u32 section count, then
tagged sections (u16 name length, utf-8 name, u64 payload length, payload).
Each section name appears once and the file ends with the last section.
Arrays are stored as u32 rank, u32 per dimension, then the values; each
binary section ends with its last array.
All integers and floats are little-endian; floats are 64-bit. A JSON
export mirrors the same content for debugging.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CorruptModel, DimensionMismatch, VersionMismatch
from ..featset import FeatureSetConfig
from .normalize import NormalizerStats
from .pca import PcaTransform
from .svm import SvmHyperParams, SvmModel, _decision, decision_values

MAGIC = b"NLCM"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to classify: feature set, normalizer, optional PCA, SVM."""

    feature_config: FeatureSetConfig
    hyperparams: SvmHyperParams
    normalizer: NormalizerStats
    pca: PcaTransform | None
    svm: SvmModel

    def __post_init__(self):
        raw = self.feature_config.raw_dimension
        if self.feature_config.uses_pca != (self.pca is not None):
            raise DimensionMismatch(
                f"{self.feature_config.kind.value}: PCA presence must match the feature set"
            )
        if self.normalizer.dimension != raw:
            raise DimensionMismatch(
                f"normalizer dim {self.normalizer.dimension} != raw dim {raw}"
            )
        if self.pca is not None and self.pca.input_dimension != raw:
            raise DimensionMismatch(f"PCA input dim {self.pca.input_dimension} != raw dim {raw}")
        expected = self.pca.output_dimension if self.pca is not None else raw
        if self.svm.dimension != expected:
            raise DimensionMismatch(f"SVM dim {self.svm.dimension} != projected dim {expected}")

    def decide(self, x: np.ndarray) -> float:
        """Decision value for one raw feature vector.

        Raises DimensionMismatch for anything but one vector of raw_dimension
        values. The vector is checked once, normalized and PCA-projected
        with the arithmetic of `NormalizerStats.transform` and
        `PcaTransform.transform`, and scored by `svm._decision`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise DimensionMismatch("decide expects a single vector")
        if x.size != self.normalizer.dimension:
            raise DimensionMismatch(f"vector dim {x.size} != raw dim {self.normalizer.dimension}")
        z = x - self.normalizer.mean
        z /= self.normalizer.std
        if self.pca is not None:
            z = (z - self.pca.mean) @ self.pca.basis.T
        return _decision(self.svm, z)

    def decide_many(self, x: np.ndarray) -> np.ndarray:
        """Decision values for an (n, raw_dim) matrix of raw feature vectors.

        Bitwise equal row by row to `decide`: each row is PCA-projected by
        its own vector-matrix product, as `decide` projects it, not by one
        matrix product over the batch.
        """
        z = self.normalizer.transform(np.atleast_2d(x))
        if self.pca is not None:
            z = np.matmul((z - self.pca.mean)[:, None, :], self.pca.basis.T)[:, 0]
        return decision_values(self.svm, z)

    def to_debug_dict(self) -> dict:
        out = {
            "format_version": FORMAT_VERSION,
            "feature_config": self.feature_config.to_dict(),
            "hyperparams": self.hyperparams.to_dict(),
            "normalizer": {
                "mean": self.normalizer.mean.tolist(),
                "std": self.normalizer.std.tolist(),
            },
            "pca": None,
            "svm": {
                "gamma": self.svm.gamma,
                "bias": self.svm.bias,
                "alphas_signed": self.svm.alphas_signed.tolist(),
                "support_vectors": self.svm.support_vectors.tolist(),
            },
        }
        if self.pca is not None:
            out["pca"] = {
                "epsilon": self.pca.epsilon,
                "mean": self.pca.mean.tolist(),
                "basis": self.pca.basis.tolist(),
                "eigenvalues": self.pca.eigenvalues.tolist(),
            }
        return out


def _pack_array(a: np.ndarray) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape) + a.astype("<f8").tobytes()


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CorruptModel("unexpected end of model file")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def array(self, ndim: int) -> np.ndarray:
        """The next array, which must have rank ndim."""
        stored = self.u32()
        if stored != ndim:
            raise CorruptModel(f"array rank {stored}, expected {ndim}")
        shape = tuple(self.u32() for _ in range(ndim))
        raw = self.take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def done(self, section: str) -> None:
        if self.offset != len(self.data):
            raise CorruptModel(f"{len(self.data) - self.offset} bytes left in section {section!r}")


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize a bundle; numeric round-trips are bit-exact."""
    sections: list[tuple[str, bytes]] = [
        ("feature_config", json.dumps(bundle.feature_config.to_dict()).encode()),
        ("hyperparams", json.dumps(bundle.hyperparams.to_dict()).encode()),
        ("normalizer", _pack_array(bundle.normalizer.mean) + _pack_array(bundle.normalizer.std)),
        (
            "svm",
            struct.pack("<dd", bundle.svm.gamma, bundle.svm.bias)
            + _pack_array(bundle.svm.alphas_signed)
            + _pack_array(bundle.svm.support_vectors),
        ),
    ]
    if bundle.pca is not None:
        sections.append((
            "pca",
            struct.pack("<d", bundle.pca.epsilon)
            + _pack_array(bundle.pca.mean)
            + _pack_array(bundle.pca.basis)
            + _pack_array(bundle.pca.eigenvalues),
        ))
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(sections))
    for name, payload in sections:
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<Q", len(payload)) + payload
    Path(path).write_bytes(bytes(blob))


def _json_section(sections: dict[str, bytes], name: str) -> dict:
    try:
        data = json.loads(sections[name])
    except ValueError as exc:
        raise CorruptModel(f"bad JSON in section {name!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptModel(f"section {name!r} is not a JSON object")
    return data


def _check_numbers(normalizer: NormalizerStats, svm: SvmModel, pca: PcaTransform | None) -> None:
    """CorruptModel for numbers no trained model can hold: they would score NaN or inf."""
    arrays = {
        "normalizer mean": normalizer.mean,
        "normalizer std": normalizer.std,
        "svm alphas": svm.alphas_signed,
        "svm support vectors": svm.support_vectors,
        "svm gamma": np.array(svm.gamma),
        "svm bias": np.array(svm.bias),
    }
    if pca is not None:
        arrays.update({
            "pca mean": pca.mean,
            "pca basis": pca.basis,
            "pca eigenvalues": pca.eigenvalues,
        })
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise CorruptModel(f"non-finite value in {name}")
    if np.any(normalizer.std <= 0.0):
        raise CorruptModel("normalizer std must be positive")
    if svm.gamma <= 0.0:
        raise CorruptModel(f"svm gamma must be positive, got {svm.gamma}")


def load_model(path: str | Path) -> ModelBundle:
    """Load a bundle written by save_model.

    Raises VersionMismatch for a wrong magic/version and CorruptModel for
    truncated or inconsistent content, including a section name that is not
    UTF-8, a repeated section, bytes after the last section or the last
    array of a section, a JSON section that is not an object, an array of
    the wrong rank, non-finite numbers (SVM hyperparameters included), a
    non-positive hyperparameter or normalizer std or a non-positive RBF
    gamma.
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise VersionMismatch(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    reader = _Reader(data, 4)
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version}")
    n_sections = reader.u32()
    if n_sections > 64:
        raise CorruptModel(f"implausible section count {n_sections}")
    sections: dict[str, bytes] = {}
    for _ in range(n_sections):
        try:
            name = reader.take(reader.u16()).decode()
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"section name is not UTF-8: {exc}") from exc
        if name in sections:
            raise CorruptModel(f"repeated section {name!r}")
        sections[name] = reader.take(reader.u64())
    if reader.offset != len(data):
        raise CorruptModel(f"{len(data) - reader.offset} bytes after the last section")

    missing = {"feature_config", "hyperparams", "normalizer", "svm"} - sections.keys()
    if missing:
        raise CorruptModel(f"missing sections: {sorted(missing)}")
    feature_json = _json_section(sections, "feature_config")
    hyperparams_json = _json_section(sections, "hyperparams")
    try:
        feature_config = FeatureSetConfig.from_dict(feature_json)
        hyperparams = SvmHyperParams.from_dict(hyperparams_json)
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptModel(f"bad JSON section: {exc}") from exc

    r = _Reader(sections["normalizer"])
    normalizer = NormalizerStats(mean=r.array(1), std=r.array(1))
    r.done("normalizer")
    r = _Reader(sections["svm"])
    gamma, bias = struct.unpack("<dd", r.take(16))
    alphas = r.array(1)
    vectors = r.array(2)
    r.done("svm")
    svm = SvmModel(support_vectors=vectors, alphas_signed=alphas, bias=bias, gamma=gamma)
    pca = None
    if "pca" in sections:
        r = _Reader(sections["pca"])
        (epsilon,) = struct.unpack("<d", r.take(8))
        pca = PcaTransform(epsilon=epsilon, mean=r.array(1), basis=r.array(2),
                           eigenvalues=r.array(1))
        r.done("pca")
    _check_numbers(normalizer, svm, pca)
    try:
        return ModelBundle(
            feature_config=feature_config,
            hyperparams=hyperparams,
            normalizer=normalizer,
            pca=pca,
            svm=svm,
        )
    except DimensionMismatch as exc:
        raise CorruptModel(f"inconsistent model content: {exc}") from exc


def save_model_json(bundle: ModelBundle, path: str | Path) -> None:
    """Human-readable mirror of the binary model file."""
    Path(path).write_text(json.dumps(bundle.to_debug_dict(), indent=2))
