"""Audio ingestion, VAD, framing and speaker splits."""

import struct
import tracemalloc
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlconfirm.corpus import (
    FRAME_LEN,
    HOP_LEN,
    SAMPLE_RATE,
    AudioBuffer,
    Label,
    SegmentDescriptor,
    VadConfig,
    frame_stream,
    load_segments,
    load_wav,
    parse_manifest,
    pcm16,
    split_corpus,
    vad_segments,
    wav_writer,
    write_manifest,
    write_wav,
)
from nlconfirm.errors import (
    CorruptFile,
    NoConfirmations,
    ParseError,
    RangeError,
    SegmentTooShort,
    SplitImpossible,
    UnsupportedFormat,
)

from .conftest import make_segment, silence, sine


def _write_raw_wav(path, rate=16000, channels=1, width=2, data=b"\x00\x00" * 100):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(data)


class TestLoadWav:
    def test_silence_second(self, tmp_path):
        p = tmp_path / "s.wav"
        _write_raw_wav(p, data=b"\x00\x00" * 16000)
        audio = load_wav(p)
        assert len(audio) == 16000
        assert audio.sample_rate == 16000
        assert np.all(audio.samples == 0.0)

    def test_integer_scaling(self, tmp_path):
        p = tmp_path / "alt.wav"
        data = struct.pack("<4h", 32767, -32768, 32767, -32768)
        _write_raw_wav(p, data=data)
        audio = load_wav(p)
        assert audio.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)
        assert audio.samples[0] == pytest.approx(0.99997, abs=1e-4)
        assert audio.samples[1] == -1.0

    def test_wrong_rate_rejected(self, tmp_path):
        p = tmp_path / "hi.wav"
        _write_raw_wav(p, rate=44100)
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        _write_raw_wav(p, channels=2, data=b"\x00\x00\x00\x00" * 50)
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_eight_bit_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        _write_raw_wav(p, width=1, data=b"\x80" * 100)
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_not_a_wav(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"definitely not audio")
        with pytest.raises(UnsupportedFormat):
            load_wav(p)

    def test_truncated_data_chunk(self, tmp_path):
        p = tmp_path / "t.wav"
        _write_raw_wav(p, data=b"\x00\x00" * 1000)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 500])
        with pytest.raises(CorruptFile):
            load_wav(p)

    def test_fmt_chunk_size_past_the_end(self, tmp_path):
        p = tmp_path / "f.wav"
        write_wav(p, AudioBuffer(sine(440, 0.1)))
        blob = bytearray(p.read_bytes())
        blob[16:20] = struct.pack("<I", 0x7FFFFFFF)  # the fmt chunk's size
        p.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile, match="past the end"):
            load_wav(p)

    def test_roundtrip_write_read(self, tmp_path):
        samples = sine(440, 0.1)
        p = tmp_path / "rt.wav"
        write_wav(p, AudioBuffer(samples))
        back = load_wav(p)
        assert np.max(np.abs(back.samples - samples)) < 1.0 / 32768

    def test_pieces_written_in_turn_give_the_bytes_of_one_write(self, tmp_path):
        samples = np.random.default_rng(0).uniform(-1.0, 1.0, 5000)
        samples[[10, 3000]] = 1.0, -1.0  # full scale: +1.0 clips to 32767
        write_wav(tmp_path / "whole.wav", AudioBuffer(samples))
        with wav_writer(tmp_path / "pieces.wav", SAMPLE_RATE) as wav:
            for piece in np.split(samples, [0, 1, 160, 3000, 3001]):  # the first is empty
                wav.writeframes(pcm16(AudioBuffer(piece)))
        assert (tmp_path / "pieces.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()
        assert load_wav(tmp_path / "pieces.wav").samples[[10, 3000]].tolist() == [32767 / 32768, -1.0]

    def test_non_riff_rejection_closes_the_file(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(bytes(range(16)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(UnsupportedFormat, match="not a RIFF/WAVE file"):
                load_wav(p)
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_a_load_holds_the_pcm_bytes_and_one_float64_copy(self, tmp_path):
        # 2 + 8 bytes a sample at the peak; a second float64 copy would add 8
        n = 160_000
        p = tmp_path / "ten_seconds.wav"
        write_wav(p, AudioBuffer(np.random.default_rng(0).uniform(-1.0, 1.0, n)))
        tracemalloc.start()
        try:
            audio = load_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(audio) == n
        assert peak < 11 * n


@pytest.mark.parametrize("samples", [[0.5, np.nan], [np.inf, 0.0], [-np.inf], [1.0 + 1e-12], [-1.5, 0.0]])
def test_audio_buffer_rejects_non_finite_or_out_of_range_samples(samples):
    with pytest.raises(UnsupportedFormat, match="finite and within"):
        AudioBuffer(np.array(samples))


def test_audio_buffer_accepts_full_scale_and_empty_samples():
    assert AudioBuffer(np.array([-1.0, 0.0, 1.0])).samples.tolist() == [-1.0, 0.0, 1.0]
    assert len(AudioBuffer(np.array([]))) == 0


class TestManifest:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,spk1,0,500,confirmation\n")
        rows = parse_manifest(p)
        assert rows == [SegmentDescriptor("a.wav", "spk1", 0, 500, Label.CONFIRMATION)]

    def test_label_case_insensitive(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,s,0,100,Other\n")
        assert parse_manifest(p)[0].label is Label.OTHER

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,s,0,100,yes\n")
        with pytest.raises(ParseError) as err:
            parse_manifest(p)
        assert err.value.row == 2

    def test_rows_are_file_lines_after_a_multiline_field(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text('wav_path,speaker_id,start_ms,end_ms,label\n'
                     '"two\nlines.wav",s,0,100,other\n'
                     'a.wav,s,0,100,yes\n')
        with pytest.raises(ParseError, match="unknown label") as err:
            parse_manifest(p)
        assert err.value.row == 4

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"wav_path,speaker_id,start_ms,end_ms,label\n"
                      b"a.wav,s,0,100,other\nb.wav,s\xff,0,100,other\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            parse_manifest(p)
        assert err.value.row == 3

    def test_nul_in_wav_path(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"wav_path,speaker_id,start_ms,end_ms,label\na\x00.wav,s,0,100,other\n")
        with pytest.raises(ParseError, match="NUL") as err:
            parse_manifest(p)
        assert err.value.row == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbfwav_path,speaker_id,start_ms,end_ms,label\na.wav,s,0,100,other\n")
        assert parse_manifest(p) == [SegmentDescriptor("a.wav", "s", 0, 100, Label.OTHER)]

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\n")
        assert parse_manifest(p) == []

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a.wav,s,0,100,other\n")
        with pytest.raises(ParseError):
            parse_manifest(p)

    def test_bad_ints(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,s,zero,100,other\n")
        with pytest.raises(ParseError):
            parse_manifest(p)

    def test_reversed_span(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,s,200,100,other\n")
        with pytest.raises(ParseError):
            parse_manifest(p)

    def test_roundtrip_identity(self, tmp_path):
        rows = [
            SegmentDescriptor("a.wav", "spk1", 0, 500, Label.CONFIRMATION),
            SegmentDescriptor("sub/b.wav", "spk2", 120, 3000, Label.OTHER),
        ]
        p = tmp_path / "rt.csv"
        write_manifest(rows, p)
        assert parse_manifest(p) == rows

    def test_load_segments_range_check(self, tmp_path):
        write_wav(tmp_path / "a.wav", AudioBuffer(silence(0.5)))
        m = tmp_path / "m.csv"
        m.write_text("wav_path,speaker_id,start_ms,end_ms,label\na.wav,s,0,600,other\n")
        with pytest.raises(RangeError):
            load_segments(m)

    def test_load_segments_slices(self, tmp_path):
        write_wav(tmp_path / "a.wav", AudioBuffer(sine(220, 1.0)))
        m = tmp_path / "m.csv"
        m.write_text(
            "wav_path,speaker_id,start_ms,end_ms,label\n"
            "a.wav,s,100,400,confirmation\na.wav,s,500,900,other\n"
        )
        segs = load_segments(m)
        assert [len(s.samples) for s in segs] == [4800, 6400]
        assert segs[0].label is Label.CONFIRMATION


# one byte of every class the manifest reader tells apart: NUL and control
# characters, CSV separators and quotes, signs and digits, path characters,
# letters, and bytes that break UTF-8 (lone continuation, cut-off lead, 0xff)
_SCAN_BYTES = b"\x00\t\n\r \"',+-./09Ao_z\\\x7f\x80\xc3\xef\xff"


def test_manifest_overwrite_and_truncation_load_or_raise_typed(tmp_path):
    """Every single-byte overwrite and every truncation of a 4-row manifest.

    `load_segments` reads the manifest and the WAVs it names; each case
    loads, raises ParseError, or raises an OSError for a WAV that is not there.
    """
    rng = np.random.default_rng(0)
    for name in ("a.wav", "b.wav"):
        write_wav(tmp_path / name, AudioBuffer(rng.uniform(-0.5, 0.5, 16000)))
    text = (b"wav_path,speaker_id,start_ms,end_ms,label\n"
            b"a.wav,s1,0,500,confirmation\n"
            b"a.wav,s1,500,900,other\n"
            b"b.wav,s2,100,400,Other\n"
            b"b.wav,s2,400,999,CONFIRMATION\n")
    cases = [text[:length] for length in range(len(text))]
    cases += [text[:pos] + bytes([b]) + text[pos + 1:]
              for pos in range(len(text)) for b in _SCAN_BYTES if b != text[pos]]
    manifest = tmp_path / "m.csv"
    outcomes = set()
    for blob in cases:
        manifest.write_bytes(blob)
        try:
            load_segments(manifest)
            outcomes.add("loads")
        except ParseError:
            outcomes.add("ParseError")
        except OSError:
            outcomes.add("OSError")
    assert outcomes == {"loads", "ParseError", "OSError"}  # the scan reaches every outcome


class TestVad:
    def test_pure_silence(self):
        assert vad_segments(AudioBuffer(silence(1.0))) == []

    def test_single_tone(self):
        samples = np.concatenate([silence(0.5), sine(440, 1.0), silence(0.5)])
        segs = vad_segments(AudioBuffer(samples), VadConfig(threshold=0.01, hangover_ms=200))
        assert len(segs) == 1
        # nominal [500, 1500] ms with hangover slack
        assert 300 <= segs[0].start_ms <= 520
        assert 1480 <= segs[0].end_ms <= 1700

    def test_two_bursts_long_gap(self):
        samples = np.concatenate([sine(300, 0.4), silence(0.8), sine(300, 0.4)])
        segs = vad_segments(AudioBuffer(samples), VadConfig(hangover_ms=200))
        assert len(segs) == 2

    def test_two_bursts_short_gap_merge(self):
        samples = np.concatenate([sine(300, 0.4), silence(0.15), sine(300, 0.4)])
        segs = vad_segments(AudioBuffer(samples), VadConfig(hangover_ms=200))
        assert len(segs) == 1

    def test_idempotence(self):
        samples = np.concatenate(
            [silence(0.3), sine(250, 0.5), silence(0.7), sine(333, 0.7), silence(0.4)]
        )
        config = VadConfig(threshold=0.01, hangover_ms=200)
        first = vad_segments(AudioBuffer(samples), config)
        gap = silence(0.25)  # >= hangover
        stitched = np.concatenate(
            [gap] + [np.concatenate([s.samples.samples, gap]) for s in first]
        )
        second = vad_segments(AudioBuffer(stitched), config)
        assert len(second) == len(first)

    def test_rms_threshold_sensitivity(self):
        # sine RMS = 0.3536 for amplitude 0.5: above 0.01, below 0.5
        samples = np.concatenate([silence(0.2), sine(440, 0.5, amplitude=0.5), silence(0.2)])
        assert len(vad_segments(AudioBuffer(samples), VadConfig(threshold=0.5))) == 0
        assert len(vad_segments(AudioBuffer(samples), VadConfig(threshold=0.01))) == 1


class TestFrameStream:
    def test_exactly_one_frame(self):
        seg = make_segment(np.ones(FRAME_LEN) * 0.1)
        frames = frame_stream(seg)
        assert len(frames) == 1
        assert frames[0].index == 0

    def test_one_second(self):
        seg = make_segment(sine(100, 1.0))
        assert len(frame_stream(seg)) == 98

    def test_too_short_segment_rejected(self):
        with pytest.raises(SegmentTooShort):
            make_segment(np.zeros(384))  # 24 ms

    def test_frame_overlap(self):
        rng = np.random.default_rng(0)
        seg = make_segment(rng.uniform(-0.5, 0.5, 2 * FRAME_LEN))
        frames = frame_stream(seg)
        for a, b in zip(frames, frames[1:]):
            assert np.array_equal(a.samples[HOP_LEN:], b.samples[: FRAME_LEN - HOP_LEN])

    def test_trailing_partial_discarded(self):
        seg = make_segment(np.zeros(FRAME_LEN + HOP_LEN + 10))
        assert len(frame_stream(seg)) == 2


def _speaker_segments(speaker: str, n: int, n_confirm: int):
    segs = []
    for i in range(n):
        label = Label.CONFIRMATION if i < n_confirm else Label.OTHER
        segs.append(make_segment(np.zeros(FRAME_LEN), speaker=speaker, label=label))
    return segs


def _speakers(segments) -> set[str]:
    return {s.speaker_id for s in segments}


class TestSplit:
    def test_ten_speakers_seventy_percent(self):
        segments = []
        for s in range(10):
            segments.extend(_speaker_segments(f"spk{s}", 10, 1))
        train, test = split_corpus(segments, 0.7, seed=1)
        assert len(train) == 70
        assert len(test) == 30
        assert _speakers(train).isdisjoint(_speakers(test))

    def test_single_eligible_speaker(self):
        segments = _speaker_segments("only", 5, 2) + _speaker_segments("empty", 5, 0)
        with pytest.raises(SplitImpossible):
            split_corpus(segments, 0.7, seed=0)

    def test_no_confirmations(self):
        segments = _speaker_segments("a", 3, 0) + _speaker_segments("b", 3, 0)
        with pytest.raises(NoConfirmations):
            split_corpus(segments, 0.7, seed=0)

    def test_determinism(self):
        segments = []
        for s in range(6):
            segments.extend(_speaker_segments(f"spk{s}", 4 + s, 1))
        a_train, _ = split_corpus(segments, 0.7, seed=42)
        b_train, _ = split_corpus(segments, 0.7, seed=42)
        assert _speakers(a_train) == _speakers(b_train)

    def test_zero_confirmation_speakers_excluded(self):
        segments = []
        for s in range(4):
            segments.extend(_speaker_segments(f"spk{s}", 5, 1))
        segments.extend(_speaker_segments("mute", 20, 0))
        train, test = split_corpus(segments, 0.7, seed=0)
        speakers = _speakers(train) | _speakers(test)
        assert "mute" not in speakers
        assert len(train) + len(test) == 20

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.tuples(st.integers(1, 8), st.booleans()), min_size=2, max_size=7),
        fraction=st.floats(0.2, 0.9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_disjoint_for_all_seeds(self, counts, fraction, seed):
        if sum(1 for _, has_conf in counts if has_conf) < 2:
            return
        segments = []
        for idx, (n, has_conf) in enumerate(counts):
            segments.extend(_speaker_segments(f"spk{idx}", n, 1 if has_conf else 0))
        train, test = split_corpus(segments, fraction, seed)
        assert _speakers(train).isdisjoint(_speakers(test))
        assert train and test
        eligible = {f"spk{i}" for i, (_, c) in enumerate(counts) if c}
        assert _speakers(train) | _speakers(test) == eligible


# one byte of every class the WAV reader tells apart: zero and small counts
# (channels, sample width, chunk sizes), a space and the letters of the chunk
# ids, and bytes with the high bit set up to all ones
_WAV_SCAN_BYTES = b"\x00\x01\x02\x10 d\x7f\x80\xff"


def test_wav_overwrite_and_truncation_load_or_raise_typed(tmp_path):
    """Every single-byte overwrite and every truncation of an 844-byte WAV.

    Each case loads, or raises CorruptFile or UnsupportedFormat.
    """
    wav = tmp_path / "a.wav"
    write_wav(wav, AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, 400)))
    blob = wav.read_bytes()
    assert len(blob) == 844
    cases = [blob[:length] for length in range(len(blob))]
    cases += [blob[:pos] + bytes([b]) + blob[pos + 1:]
              for pos in range(len(blob)) for b in _WAV_SCAN_BYTES if b != blob[pos]]
    outcomes = set()
    for case in cases:
        wav.write_bytes(case)
        try:
            load_wav(wav)
            outcomes.add("loads")
        except CorruptFile:
            outcomes.add("CorruptFile")
        except UnsupportedFormat:
            outcomes.add("UnsupportedFormat")
    assert outcomes == {"loads", "CorruptFile", "UnsupportedFormat"}  # the scan reaches each
