"""Model bundle serialization round-trips and error paths."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlconfirm.errors import CorruptModel, DimensionMismatch, VersionMismatch
from nlconfirm.featset import FeatureKind, FeatureSetConfig
from nlconfirm.learn import (
    ModelBundle,
    SvmHyperParams,
    fit_normalizer,
    fit_pca,
    load_model,
    save_model,
    save_model_json,
    train_svm,
)
from nlconfirm.learn.svm import _CHUNK_ELEMENTS, _decision


def make_bundle(kind: FeatureKind, seed: int = 0) -> ModelBundle:
    config = FeatureSetConfig(kind)
    rng = np.random.default_rng(seed)
    d = config.raw_dimension
    n = 60
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)
    y = np.where(x[:, 0] + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
    if not (np.any(y > 0) and np.any(y < 0)):
        y[0] = -y[0]
    normalizer = fit_normalizer(x)
    z = normalizer.transform(x)
    pca = fit_pca(z) if config.uses_pca else None
    projected = pca.transform(z) if pca else z
    params = SvmHyperParams(C=1.0, eps=0.05, gamma=0.05)
    svm = train_svm(projected, y, params)
    return ModelBundle(
        feature_config=config,
        hyperparams=params,
        normalizer=normalizer,
        pca=pca,
        svm=svm,
    )


@pytest.mark.parametrize("kind", [FeatureKind.STACKED_FORMANTS, FeatureKind.STACKED_PITCH])
def test_roundtrip_decision_values(tmp_path, kind):
    bundle = make_bundle(kind)
    path = tmp_path / "model.nlcm"
    save_model(bundle, path)
    loaded = load_model(path)
    rng = np.random.default_rng(1)
    probes = rng.standard_normal((100, bundle.feature_config.raw_dimension))
    original = bundle.decide_many(probes)
    restored = loaded.decide_many(probes)
    assert np.array_equal(original, restored)  # format is bit-exact
    assert np.max(np.abs(original - restored)) <= 1e-12


_SCORED_BUNDLES = {kind: make_bundle(kind) for kind in (
    FeatureKind.MFCC, FeatureKind.STACKED_FORMANTS,        # without PCA
    FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC,      # with PCA
)}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(_SCORED_BUNDLES, key=lambda k: k.value)),
    size=st.sampled_from(["one", "chunk - 1", "chunk", "chunk + 1", "3 chunks + 1"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_decide_many_is_decide_row_by_row(kind, size, scale, seed, data):
    bundle = _SCORED_BUNDLES[kind]
    chunk = _CHUNK_ELEMENTS // bundle.svm.support_vectors.size  # rows per scoring chunk
    n = {"one": 1, "chunk - 1": chunk - 1, "chunk": chunk, "chunk + 1": chunk + 1,
         "3 chunks + 1": 3 * chunk + 1}[size]
    rows = np.random.default_rng(seed).standard_normal(
        (n, bundle.feature_config.raw_dimension)) * scale
    batch = bundle.decide_many(rows)
    assert batch.tobytes() == np.array([bundle.decide(row) for row in rows]).tobytes()
    # a row's score does not depend on where in the batch (or in which chunk) it sits
    shift = data.draw(st.integers(0, n - 1))
    assert np.roll(bundle.decide_many(np.roll(rows, shift, axis=0)), -shift).tobytes() \
        == batch.tobytes()
    stop = data.draw(st.integers(1, n))
    assert bundle.decide_many(rows[stop - 1:stop]).tobytes() == batch[stop - 1:stop].tobytes()


@pytest.mark.parametrize("kind", sorted(_SCORED_BUNDLES, key=lambda k: k.value))
def test_decide_scores_one_vector_of_the_raw_dimension(kind):
    bundle = _SCORED_BUNDLES[kind]
    d = bundle.feature_config.raw_dimension
    row = np.random.default_rng(3).standard_normal(d)
    for matrix in (row[None], np.stack([row, row]), np.float64(row[0])):
        with pytest.raises(DimensionMismatch, match="single vector"):
            bundle.decide(matrix)
    for width in (d - 1, d + 1):
        with pytest.raises(DimensionMismatch, match="raw dim"):
            bundle.decide(np.resize(row, width))
    # the bits of svm._decision on the normalizer's (and PCA's) transform
    z = bundle.normalizer.transform(row)
    if bundle.pca is not None:
        z = bundle.pca.transform(z)
    assert bundle.decide(row).hex() == _decision(bundle.svm, z).hex()
    assert bundle.decide(row.tolist()).hex() == bundle.decide(row).hex()


def test_roundtrip_fields(tmp_path):
    bundle = make_bundle(FeatureKind.STACKED_PITCH)
    path = tmp_path / "model.nlcm"
    save_model(bundle, path)
    loaded = load_model(path)
    assert loaded.feature_config == bundle.feature_config
    assert loaded.hyperparams == bundle.hyperparams
    assert np.array_equal(loaded.normalizer.mean, bundle.normalizer.mean)
    assert np.array_equal(loaded.pca.basis, bundle.pca.basis)
    assert loaded.pca.epsilon == bundle.pca.epsilon
    assert np.array_equal(loaded.svm.support_vectors, bundle.svm.support_vectors)
    assert loaded.svm.bias == bundle.svm.bias


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.nlcm"
    path.write_bytes(b"XXXX" + b"\x00" * 100)
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_bad_version(tmp_path):
    bundle = make_bundle(FeatureKind.FORMANT_SD)
    path = tmp_path / "model.nlcm"
    save_model(bundle, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


@pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9])
def test_truncated_file(tmp_path, keep_fraction):
    bundle = make_bundle(FeatureKind.MFCC)
    path = tmp_path / "model.nlcm"
    save_model(bundle, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: max(5, int(len(blob) * keep_fraction))])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_json_mirror(tmp_path):
    bundle = make_bundle(FeatureKind.PITCH)
    path = tmp_path / "model.json"
    save_model_json(bundle, path)
    data = json.loads(path.read_text())
    assert data["feature_config"]["kind"] == "pitch"
    assert data["hyperparams"] == {"C": 1.0, "eps": 0.05, "gamma": 0.05}
    assert data["svm"]["bias"] == bundle.svm.bias


def test_pca_presence_enforced():
    bundle = make_bundle(FeatureKind.STACKED_PITCH)
    with pytest.raises(DimensionMismatch):
        ModelBundle(
            feature_config=bundle.feature_config,
            hyperparams=bundle.hyperparams,
            normalizer=bundle.normalizer,
            pca=None,  # stacked pitch requires a projection
            svm=bundle.svm,
        )


def test_dimension_chain_enforced():
    good = make_bundle(FeatureKind.FORMANT_SD)
    wrong_norm = make_bundle(FeatureKind.PITCH).normalizer
    with pytest.raises(DimensionMismatch):
        ModelBundle(
            feature_config=good.feature_config,
            hyperparams=good.hyperparams,
            normalizer=wrong_norm,
            pca=None,
            svm=good.svm,
        )


def _patched(bundle: ModelBundle, part: str, **fields) -> ModelBundle:
    return replace(bundle, **{part: replace(getattr(bundle, part), **fields)})


def _first_set(a: np.ndarray, value: float) -> np.ndarray:
    out = a.copy()
    out.flat[0] = value
    return out


_BAD_NUMBERS = {
    "nan_normalizer_mean": lambda b: _patched(b, "normalizer", mean=_first_set(b.normalizer.mean, np.nan)),
    "inf_normalizer_std": lambda b: _patched(b, "normalizer", std=_first_set(b.normalizer.std, np.inf)),
    "nan_svm_alpha": lambda b: _patched(b, "svm", alphas_signed=_first_set(b.svm.alphas_signed, np.nan)),
    "inf_support_vector": lambda b: _patched(b, "svm", support_vectors=_first_set(b.svm.support_vectors, -np.inf)),
    "nan_pca_mean": lambda b: _patched(b, "pca", mean=_first_set(b.pca.mean, np.nan)),
    "nan_pca_basis": lambda b: _patched(b, "pca", basis=_first_set(b.pca.basis, np.nan)),
    "inf_pca_eigenvalue": lambda b: _patched(b, "pca", eigenvalues=_first_set(b.pca.eigenvalues, np.inf)),
    "nan_bias": lambda b: _patched(b, "svm", bias=float("nan")),
    "inf_bias": lambda b: _patched(b, "svm", bias=float("inf")),
    "nan_gamma": lambda b: _patched(b, "svm", gamma=float("nan")),
    "zero_std": lambda b: _patched(b, "normalizer", std=_first_set(b.normalizer.std, 0.0)),
    "negative_std": lambda b: _patched(b, "normalizer", std=_first_set(b.normalizer.std, -1.0)),
    "zero_gamma": lambda b: _patched(b, "svm", gamma=0.0),
    "negative_gamma": lambda b: _patched(b, "svm", gamma=-0.05),
}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_numbers_rejected(tmp_path, case):
    good = make_bundle(FeatureKind.STACKED_PITCH)  # has a PCA section
    path = tmp_path / "model.nlcm"
    save_model(good, path)
    load_model(path)  # the unpatched model loads
    save_model(_BAD_NUMBERS[case](good), path)
    with pytest.raises(CorruptModel):
        load_model(path)


def _section_blobs(blob: bytes) -> list[bytes]:
    """Raw bytes (header and payload) of each section of a saved model."""
    out, offset = [], 12
    for _ in range(int.from_bytes(blob[8:12], "little")):
        name_end = offset + 2 + int.from_bytes(blob[offset : offset + 2], "little")
        end = name_end + 8 + int.from_bytes(blob[name_end : name_end + 8], "little")
        out.append(blob[offset:end])
        offset = end
    assert offset == len(blob)
    return out


@pytest.mark.parametrize("extra", ["one_zero_byte", "text", "whole_section"])
def test_bytes_after_last_section_rejected(tmp_path, extra):
    path = tmp_path / "model.nlcm"
    save_model(make_bundle(FeatureKind.FORMANT_SD), path)
    blob = path.read_bytes()
    tail = {"one_zero_byte": b"\x00", "text": b"trailer",
            "whole_section": _section_blobs(blob)[1]}[extra]
    path.write_bytes(blob + tail)
    with pytest.raises(CorruptModel, match="after the last section"):
        load_model(path)


@pytest.mark.parametrize("repeated", [0, 1, 3])
def test_repeated_section_rejected(tmp_path, repeated):
    path = tmp_path / "model.nlcm"
    save_model(make_bundle(FeatureKind.FORMANT_SD), path)
    blob = path.read_bytes()
    sections = _section_blobs(blob)
    count = (len(sections) + 1).to_bytes(4, "little")
    path.write_bytes(blob[:8] + count + b"".join(sections) + sections[repeated])
    with pytest.raises(CorruptModel, match="repeated section"):
        load_model(path)


def _section(name: bytes, payload: bytes) -> bytes:
    return len(name).to_bytes(2, "little") + name + len(payload).to_bytes(8, "little") + payload


def test_non_utf8_section_name_rejected(tmp_path):
    path = tmp_path / "model.nlcm"
    save_model(make_bundle(FeatureKind.FORMANT_SD), path)
    blob = path.read_bytes()
    sections = _section_blobs(blob)
    # same length as "feature_config", so the layout stays intact
    renamed = sections[0][:2] + b"\xfe\xff" + sections[0][4:]
    path.write_bytes(blob[:12] + renamed + b"".join(sections[1:]))
    with pytest.raises(CorruptModel, match="not UTF-8"):
        load_model(path)


@pytest.mark.parametrize("index,payload", [
    (0, b'["formant_sd"]'),
    (0, b'"formant_sd"'),
    (1, b"[1.0, 0.05, 0.05]"),
])
def test_non_object_json_section_rejected(tmp_path, index, payload):
    path = tmp_path / "model.nlcm"
    save_model(make_bundle(FeatureKind.FORMANT_SD), path)
    blob = path.read_bytes()
    sections = _section_blobs(blob)
    name = ("feature_config", "hyperparams")[index].encode()
    sections[index] = _section(name, payload)
    path.write_bytes(blob[:12] + b"".join(sections))
    with pytest.raises(CorruptModel, match="not a JSON object"):
        load_model(path)


@pytest.mark.parametrize("payload", [
    b'{"C": NaN, "eps": Infinity, "gamma": 0.05}',
    b'{"C": 1.0, "eps": 0.05, "gamma": Infinity}',
    b'{"C": Infinity, "eps": 0.05, "gamma": 0.05}',
    b'{"C": 1.0, "eps": NaN, "gamma": 0.05}',
])
def test_non_finite_hyperparams_rejected(tmp_path, payload):
    path = tmp_path / "model.nlcm"
    save_model(make_bundle(FeatureKind.FORMANT_SD), path)
    blob = path.read_bytes()
    sections = _section_blobs(blob)
    sections[1] = _section(b"hyperparams", payload)
    path.write_bytes(blob[:12] + b"".join(sections))
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.fixture(scope="module")
def saved_delta_model(tmp_path_factory) -> bytes:
    """Bytes of a saved mfcc_delta model; it has a PCA section."""
    path = tmp_path_factory.mktemp("model") / "model.nlcm"
    save_model(make_bundle(FeatureKind.MFCC_DELTA), path)
    return path.read_bytes()


def _load_or_typed_error(path, blob: bytes) -> ModelBundle | None:
    """The loaded bundle, or None when load_model raises one of its typed errors."""
    path.write_bytes(blob)
    try:
        return load_model(path)
    except (CorruptModel, VersionMismatch):
        return None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_overwrite_loads_or_raises_typed(tmp_path_factory, saved_delta_model, data):
    blob = bytearray(saved_delta_model)
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[offset] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[offset]), label="byte")
    bundle = _load_or_typed_error(tmp_path_factory.getbasetemp() / "overwritten.nlcm", bytes(blob))
    if bundle is not None:  # a model that loads can also score
        with np.errstate(all="ignore"):  # an overwritten value may be huge but finite
            bundle.decide_many(np.zeros((2, bundle.feature_config.raw_dimension)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncation_raises_typed(tmp_path_factory, saved_delta_model, data):
    length = data.draw(st.integers(0, len(saved_delta_model) - 1), label="length")
    path = tmp_path_factory.getbasetemp() / "truncated.nlcm"
    assert _load_or_typed_error(path, saved_delta_model[:length]) is None


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(list(FeatureKind)), seed=st.integers(0, 2**16), data=st.data())
def test_roundtrip_scores_bitwise(tmp_path_factory, kind, seed, data):
    bundle = make_bundle(kind, seed)
    path = tmp_path_factory.getbasetemp() / "roundtrip.nlcm"
    save_model(bundle, path)
    probes = data.draw(arrays(np.float64, (8, bundle.feature_config.raw_dimension),
                              elements=st.floats(-1e3, 1e3)), label="probes")
    assert np.array_equal(load_model(path).decide_many(probes), bundle.decide_many(probes))
