"""Audio ingestion, segmentation and speaker-disjoint splitting.

Everything downstream runs on 16 kHz mono PCM. Audio at any other rate is
rejected at ingestion; there is no resampling. Analysis frames are 25 ms
(400 samples) with a 10 ms hop (160 samples).
"""

from __future__ import annotations

import csv
import enum
import io
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CorruptFile,
    NoConfirmations,
    ParseError,
    RangeError,
    SegmentTooShort,
    SplitImpossible,
    UnsupportedFormat,
)

SAMPLE_RATE = 16_000
FRAME_MS = 25
HOP_MS = 10
FRAME_LEN = round(0.025 * SAMPLE_RATE)  # 400 samples
HOP_LEN = round(0.010 * SAMPLE_RATE)    # 160 samples

MANIFEST_HEADER = ["wav_path", "speaker_id", "start_ms", "end_ms", "label"]


class Label(enum.Enum):
    """Ground-truth class of a segment."""

    CONFIRMATION = "confirmation"
    OTHER = "other"


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise UnsupportedFormat("audio must be a 1-D sample array")
        if self.sample_rate <= 0:
            raise UnsupportedFormat(f"invalid sample rate {self.sample_rate}")
        # min and max are NaN if any sample is, and NaN fails both comparisons
        if samples.size and not (-1.0 <= samples.min() and samples.max() <= 1.0):
            raise UnsupportedFormat("samples must be finite and within [-1, 1]")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_ms(self) -> float:
        return len(self) * 1000.0 / self.sample_rate

    def slice_ms(self, start_ms: int, end_ms: int) -> AudioBuffer:
        a = round(start_ms * self.sample_rate / 1000)
        b = round(end_ms * self.sample_rate / 1000)
        if not (0 <= a < b <= len(self)):
            raise RangeError(f"slice [{start_ms}, {end_ms}) ms outside audio of {self.duration_ms:.1f} ms")
        return AudioBuffer(self.samples[a:b], self.sample_rate)


@dataclass(frozen=True)
class AudioSegment:
    """A span of continuous speech with provenance and (optionally) a label."""

    source_id: str
    speaker_id: str
    start_ms: int
    end_ms: int
    samples: AudioBuffer
    label: Label | None = None

    def __post_init__(self):
        if self.end_ms <= self.start_ms:
            raise RangeError(f"segment [{self.start_ms}, {self.end_ms}) ms is empty or reversed")
        if self.end_ms - self.start_ms < FRAME_MS:
            raise SegmentTooShort(
                f"segment [{self.start_ms}, {self.end_ms}) ms shorter than one {FRAME_MS} ms frame"
            )

    @property
    def segment_id(self) -> str:
        stem = Path(self.source_id).stem or "audio"
        return f"{self.speaker_id}_{stem}_{self.start_ms}_{self.end_ms}"

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class Frame:
    """One 25 ms analysis frame (un-windowed samples)."""

    samples: np.ndarray
    index: int
    segment_ref: str


@dataclass(frozen=True)
class SegmentDescriptor:
    """One manifest row, before any audio is loaded."""

    wav_path: str
    speaker_id: str
    start_ms: int
    end_ms: int
    label: Label


@dataclass(frozen=True)
class VadConfig:
    """Energy VAD: frame-RMS threshold plus trailing hangover."""

    threshold: float = 0.01
    hangover_ms: int = 200


# --- WAV I/O ------------------------------------------------------------------


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a mono 16-bit PCM RIFF/WAVE file at 16 kHz.

    Integer samples are scaled by 1/32768 into [-1, 1]. Any other channel
    count, encoding or rate raises UnsupportedFormat; structurally broken
    files raise CorruptFile.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            comp = wav.getcomptype()
            n_frames = wav.getnframes()
            if comp != "NONE":
                raise UnsupportedFormat(f"{path}: compressed WAV ({comp}) not supported")
            if channels != 1:
                raise UnsupportedFormat(f"{path}: expected mono, got {channels} channels")
            if width != 2:
                raise UnsupportedFormat(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise UnsupportedFormat(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
            data = wav.readframes(n_frames)
    except wave.Error as exc:
        # header-level rejects are format errors, anything else is corruption
        head = b""
        try:
            with path.open("rb") as fh:
                head = fh.read(4)
        except OSError:
            pass
        if head != b"RIFF":
            raise UnsupportedFormat(f"{path}: not a RIFF/WAVE file ({exc})") from exc
        raise CorruptFile(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise CorruptFile(f"{path}: truncated header") from exc
    except RuntimeError as exc:  # the stdlib reader's chunk seek, e.g. a size past the end
        raise CorruptFile(f"{path}: chunk extends past the end of the file") from exc
    if len(data) < 2 * n_frames:
        raise CorruptFile(f"{path}: data chunk truncated ({len(data)} of {2 * n_frames} bytes)")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
    samples /= 32768.0  # in place: one float64 copy of the file at a time
    return AudioBuffer(samples, SAMPLE_RATE)


def pcm16(audio: AudioBuffer) -> bytes:
    """Samples as 16-bit little-endian PCM: scaled by 32768, rounded, clipped."""
    scaled = audio.samples * 32768.0
    np.round(scaled, out=scaled)
    return np.clip(scaled, -32768, 32767, out=scaled).astype("<i2").tobytes()


@contextmanager
def wav_writer(path: str | Path, sample_rate: int) -> Iterator[wave.Wave_write]:
    """An open mono 16-bit PCM WAV; write `pcm16` bytes with `writeframes`.

    The header's sizes are those of all the frames written once it closes,
    so writing audio piece by piece gives the bytes of one write.
    """
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        yield wav


def write_wav(path: str | Path, audio: AudioBuffer) -> None:
    """Write an AudioBuffer as mono 16-bit PCM WAV (see `pcm16`)."""
    with wav_writer(path, audio.sample_rate) as wav:
        wav.writeframes(pcm16(audio))


# --- manifests ------------------------------------------------------------------


def parse_manifest(path: str | Path) -> list[SegmentDescriptor]:
    """Parse a segment manifest CSV.

    Expected header: ``wav_path,speaker_id,start_ms,end_ms,label`` with
    label in {confirmation, other} (case-insensitive). Row numbers in
    errors are 1-based file line numbers (header is line 1); a record whose
    quoted field spans lines is numbered by its last line. A byte that is
    not UTF-8 and a NUL in wav_path are ParseErrors too.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})",
                         row=raw[: exc.start].count(b"\n") + 1) from None
    rows: list[SegmentDescriptor] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty manifest (missing header)", row=1) from None
    if [h.strip().lower() for h in header] != MANIFEST_HEADER:
        raise ParseError(f"expected header {','.join(MANIFEST_HEADER)}", row=1)
    for row in reader:
        line_no = reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", row=line_no)
        wav_path, speaker_id, start_s, end_s, label_s = (c.strip() for c in row)
        if not wav_path or not speaker_id:
            raise ParseError("wav_path and speaker_id must be non-empty", row=line_no)
        if "\0" in wav_path:
            raise ParseError("wav_path contains a NUL character", row=line_no)
        try:
            start_ms, end_ms = int(start_s), int(end_s)
        except ValueError:
            raise ParseError(f"start_ms/end_ms must be integers, got {start_s!r}/{end_s!r}",
                             row=line_no) from None
        if start_ms < 0 or end_ms <= start_ms:
            raise ParseError(f"invalid span [{start_ms}, {end_ms})", row=line_no)
        try:
            label = Label(label_s.lower())
        except ValueError:
            raise ParseError(f"unknown label {label_s!r} (expected confirmation/other)",
                             row=line_no) from None
        rows.append(SegmentDescriptor(wav_path, speaker_id, start_ms, end_ms, label))
    return rows


def write_manifest(descriptors: Iterable[SegmentDescriptor], path: str | Path) -> None:
    """Write descriptors as a manifest CSV (inverse of parse_manifest)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for d in descriptors:
            writer.writerow([d.wav_path, d.speaker_id, d.start_ms, d.end_ms, d.label.value])


def manifest_wav(d: SegmentDescriptor, manifest_path: str | Path) -> Path:
    """The WAV path of a manifest row: absolute, or relative to the manifest's directory."""
    wav = Path(d.wav_path)
    return wav if wav.is_absolute() else Path(manifest_path).parent / wav


def manifest_segment(d: SegmentDescriptor, audio: AudioBuffer) -> AudioSegment:
    """The labeled AudioSegment of one manifest row, cut from its loaded audio.

    Raises RangeError when the row's end_ms runs past the audio.
    """
    if d.end_ms > audio.duration_ms:
        raise RangeError(f"{d.wav_path}: segment end {d.end_ms} ms exceeds "
                         f"audio length {audio.duration_ms:.1f} ms")
    return AudioSegment(
        source_id=d.wav_path,
        speaker_id=d.speaker_id,
        start_ms=d.start_ms,
        end_ms=d.end_ms,
        samples=audio.slice_ms(d.start_ms, d.end_ms),
        label=d.label,
    )


def load_segments(manifest_path: str | Path) -> list[AudioSegment]:
    """Load every manifest row into a labeled AudioSegment (see `manifest_segment`).

    Each row's WAV is found by `manifest_wav` and read once.
    """
    cache: dict[Path, AudioBuffer] = {}
    segments = []
    for d in parse_manifest(manifest_path):
        wav = manifest_wav(d, manifest_path)
        if wav not in cache:
            cache[wav] = load_wav(wav)
        segments.append(manifest_segment(d, cache[wav]))
    return segments


# --- VAD and framing ------------------------------------------------------------


def _hop_rms(samples: np.ndarray) -> np.ndarray:
    """RMS of the 25 ms window starting at each 10 ms hop."""
    n_hops = (len(samples) - FRAME_LEN) // HOP_LEN + 1
    if n_hops <= 0:
        return np.empty(0)
    sq = np.concatenate(([0.0], np.cumsum(samples * samples)))
    starts = np.arange(n_hops) * HOP_LEN
    return np.sqrt((sq[starts + FRAME_LEN] - sq[starts]) / FRAME_LEN)


def vad_segments(
    audio: AudioBuffer,
    config: VadConfig = VadConfig(),
    *,
    source_id: str = "audio",
    speaker_id: str = "",
) -> list[AudioSegment]:
    """Detect maximal speech runs by frame-RMS thresholding.

    A hop is active when the RMS of the 25 ms window starting there exceeds
    the threshold. Runs of active hops become segments; each segment's end
    is extended by the hangover, and runs whose extended spans touch are
    merged. Returned segments are unlabeled, non-overlapping and ordered.
    """
    if len(audio) == 0:
        raise SegmentTooShort("empty audio")
    rms = _hop_rms(audio.samples)
    active = rms > config.threshold
    hangover = round(config.hangover_ms * audio.sample_rate / 1000)
    runs: list[list[int]] = []  # [start_sample, end_sample) after hangover
    i = 0
    while i < len(active):
        if active[i]:
            j = i
            while j + 1 < len(active) and active[j + 1]:
                j += 1
            start = i * HOP_LEN
            end = max((j + 1) * HOP_LEN, start + FRAME_LEN) + hangover
            end = min(end, len(audio))
            if runs and start <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([start, end])
            i = j + 1
        else:
            i += 1
    segments = []
    for start, end in runs:
        if end - start < FRAME_LEN:
            continue  # unframeable sliver at the very end of the audio
        start_ms = start * 1000 // audio.sample_rate
        end_ms = end * 1000 // audio.sample_rate
        segments.append(AudioSegment(
            source_id=source_id,
            speaker_id=speaker_id,
            start_ms=int(start_ms),
            end_ms=int(end_ms),
            samples=AudioBuffer(audio.samples[start:end], audio.sample_rate),
            label=None,
        ))
    return segments


def frame_stream(segment: AudioSegment) -> list[Frame]:
    """Cut a segment into 25 ms frames at a 10 ms hop.

    Yields floor((N - 400) / 160) + 1 frames; a trailing partial frame is
    discarded. Raises SegmentTooShort below one frame of samples.
    """
    samples = segment.samples.samples
    if len(samples) < FRAME_LEN:
        raise SegmentTooShort(
            f"{segment.segment_id}: {len(samples)} samples < one frame ({FRAME_LEN})"
        )
    n = (len(samples) - FRAME_LEN) // HOP_LEN + 1
    ref = segment.segment_id
    return [
        Frame(samples[i * HOP_LEN : i * HOP_LEN + FRAME_LEN], i, ref)
        for i in range(n)
    ]


# --- train/test split ------------------------------------------------------------


def split_corpus(
    segments: Sequence[AudioSegment],
    train_fraction: float,
    seed: int,
) -> tuple[list[AudioSegment], list[AudioSegment]]:
    """Partition speakers (not segments) into (train, test) segment lists.

    Speakers without any confirmation segment are dropped first. Remaining
    speakers are assigned to the train side greedily by descending segment
    count (ties broken by a seeded shuffle) until the train side holds at
    least train_fraction of the pooled segments, keeping the test side
    non-empty. Deterministic for a given seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_speaker: dict[str, list[AudioSegment]] = {}
    for seg in segments:
        by_speaker.setdefault(seg.speaker_id, []).append(seg)
    eligible = {
        spk: segs for spk, segs in by_speaker.items()
        if any(s.label is Label.CONFIRMATION for s in segs)
    }
    if not eligible:
        raise NoConfirmations("no speaker has a confirmation segment")
    if len(eligible) < 2:
        raise SplitImpossible("need at least two eligible speakers to populate both sides")

    rng = np.random.default_rng(seed)
    tiebreak = {spk: rng.random() for spk in sorted(eligible)}
    order = sorted(eligible, key=lambda spk: (-len(eligible[spk]), tiebreak[spk]))
    total = sum(len(v) for v in eligible.values())

    train_speakers: list[str] = []
    count = 0
    for idx, spk in enumerate(order):
        if count / total >= train_fraction:
            break
        if idx == len(order) - 1:
            break  # keep at least one speaker for the test side
        train_speakers.append(spk)
        count += len(eligible[spk])

    train = [s for spk in train_speakers for s in eligible[spk]]
    test = [s for spk in order if spk not in train_speakers for s in eligible[spk]]
    return train, test
