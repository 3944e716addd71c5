"""Rolling-vote decisions, latching and offline/online parity."""

import numpy as np
import pytest

from nlconfirm import featset
from nlconfirm.corpus import FRAME_LEN, Label, frame_stream
from nlconfirm.dsp import WindowKind, apply_window, make_window
from nlconfirm.errors import NumericalFailure, SegmentTooShort
from nlconfirm.featset import FeatureKind
from nlconfirm.pipeline import (
    OnlineClassifier,
    OnlineState,
    classify_offline,
    classify_segment,
    decision_from_scores,
    trigger_time_ms,
)
from nlconfirm.stats import Stats

from .conftest import make_segment, resonator_signal, sine
from .test_model_io import make_bundle


class TestVoteRule:
    def _replay(self, votes, threshold=0.0):
        state = OnlineState(majority_threshold=threshold)
        events = [state.push_vote(v, i, "seg") for i, v in enumerate(votes)]
        return state, [e for e in events if e is not None]

    def test_unanimous_triggers_at_fifth_vote(self):
        state, events = self._replay([1, 1, 1, 1, 1, 1])
        assert state.latched
        assert len(events) == 1
        assert events[0].frame_index == 4
        assert events[0].rolling_mean == 1.0

    def test_three_of_five_triggers(self):
        state, events = self._replay([1, 1, 1, -1, -1])
        assert state.latched
        assert events[0].rolling_mean == pytest.approx(0.2)

    def test_two_of_five_does_not(self):
        state, events = self._replay([1, 1, -1, -1, -1])
        assert not state.latched
        assert events == []

    def test_alternating_latches_when_three_positive(self):
        # +,-,+,-,+ -> window mean 0.2 > 0 at the fifth vote
        state, events = self._replay([1, -1, 1, -1, 1])
        assert state.latched
        assert events[0].frame_index == 4

    def test_no_trigger_before_five_votes(self):
        state, events = self._replay([1, 1, 1, 1])
        assert not state.latched
        assert events == []

    def test_latch_is_permanent(self):
        state, events = self._replay([1] * 5 + [-1] * 30)
        assert state.latched
        assert len(events) == 1
        assert state.trigger.frame_index == 4

    def test_threshold_strictness(self):
        # mean exactly at the threshold must not latch
        state, _ = self._replay([1, 1, 1, -1, -1, 1, -1], threshold=0.2)
        assert not state.latched
        state, _ = self._replay([1, 1, 1, 1, -1], threshold=0.2)
        assert state.latched

    def test_decision_from_scores_trigger_iff_confirmation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = rng.standard_normal(rng.integers(1, 40))
            decision = decision_from_scores("s", np.arange(scores.size), scores)
            assert (decision.trigger_frame is not None) == (
                decision.decided_label is Label.CONFIRMATION
            )


@pytest.fixture(scope="module")
def formant_bundle():
    return make_bundle(FeatureKind.STACKED_FORMANTS, seed=3)


@pytest.fixture(scope="module")
def delta_bundle():
    return make_bundle(FeatureKind.MFCC_DELTA, seed=4)


def _random_segment(rng, voiced=False):
    duration = rng.uniform(0.35, 1.2)
    if voiced:
        samples = resonator_signal(
            rng.uniform(320, 420), rng.uniform(1200, 1600),
            duration_s=duration, f0=rng.uniform(110, 220),
        ) * 0.4
    else:
        samples = rng.uniform(-0.4, 0.4, int(duration * 16000))
    return make_segment(samples, label=Label.OTHER)


def _quiet_segment(rng):
    """A voiced burst between silent stretches and low-level noise.

    Its silent frames give formant sets the zero pair of a degenerate frame,
    and its noise frames pairs with an absent formant.
    """
    voiced = resonator_signal(rng.uniform(320, 420), rng.uniform(1200, 1600),
                              duration_s=0.3, f0=rng.uniform(110, 220)) * 0.4
    noise = rng.uniform(-1e-4, 1e-4, 4000)
    samples = np.concatenate([np.zeros(3200), noise[:2400], voiced, np.zeros(2400), noise[2400:]])
    return make_segment(samples, label=Label.OTHER)


class TestModeParity:
    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_offline_equals_online(self, kind):
        bundle = make_bundle(kind, seed=5)
        rng = np.random.default_rng(hash(kind.value) % 1000)
        segments = [_random_segment(rng, voiced=(i % 2 == 0)) for i in range(4)]
        segments.append(_quiet_segment(rng))
        offline = classify_offline(segments, bundle)
        for segment, reference in zip(segments, offline):
            with Stats().collecting() as stats:
                online = OnlineClassifier(bundle)
                events = []
                for frame in frame_stream(segment):
                    event = online.push_frame(frame)
                    if event:
                        events.append(event)
                event = online.finish_segment()
                if event:
                    events.append(event)
            streamed = online.decision()
            assert streamed.decided_label == reference.decided_label
            assert streamed.trigger_frame == reference.trigger_frame
            # bytes, not values: array_equal takes -0.0 for 0.0
            assert streamed.frame_scores.tobytes() == reference.frame_scores.tobytes()
            assert np.array_equal(streamed.frame_indices, reference.frame_indices)
            assert len(events) == (1 if reference.trigger_frame is not None else 0)
        if bundle.feature_config.kind in (FeatureKind.FORMANT_SD, FeatureKind.STACKED_FORMANTS):
            # the quiet segment, streamed last, went through the zero pair
            assert stats.counters["formant_silent"] > 0
            assert stats.counters["formant_no_candidate"] > 0


class TestWarmupAndReset:
    def test_no_vote_during_stacked_warmup(self, formant_bundle):
        classifier = OnlineClassifier(formant_bundle)
        frames = frame_stream(_random_segment(np.random.default_rng(1)))
        for frame in frames[:14]:
            assert classifier.push_frame(frame) is None
        assert classifier.state.votes_cast == 0
        classifier.push_frame(frames[14])
        assert classifier.state.votes_cast == 1

    def test_earliest_trigger_frame_for_stacked(self, formant_bundle):
        # first vote at frame 14, fifth at frame 18
        rng = np.random.default_rng(2)
        for _ in range(10):
            segment = _random_segment(rng, voiced=True)
            decision = classify_segment(segment, formant_bundle)
            if decision.trigger_frame is not None:
                assert decision.trigger_frame >= 18

    def test_reset_reproduces_decision(self, delta_bundle):
        segment = _random_segment(np.random.default_rng(3), voiced=True)
        classifier = OnlineClassifier(delta_bundle)

        def run():
            classifier.reset_segment()
            for frame in frame_stream(segment):
                classifier.push_frame(frame)
            classifier.finish_segment()
            return classifier.decision()

        first, second = run(), run()
        assert first.decided_label == second.decided_label
        assert first.trigger_frame == second.trigger_frame
        assert np.array_equal(first.frame_scores, second.frame_scores)

    def test_reset_clears_latch(self, formant_bundle):
        classifier = OnlineClassifier(formant_bundle)
        classifier.state.latched = True
        classifier.reset_segment()
        assert not classifier.state.latched
        assert classifier.state.votes_cast == 0

    def test_too_short_segment_propagates(self, formant_bundle):
        segment = make_segment(np.zeros(FRAME_LEN + 160 * 5))  # 6 frames < context 15
        with pytest.raises(SegmentTooShort):
            classify_offline([segment], formant_bundle)

    def test_root_failure_zero_fills_and_keeps_streaming(self, formant_bundle, monkeypatch):
        def fail(coefficients):
            if np.ndim(coefficients) == 2:  # a block marks the rows a 1-D call rejects
                return np.full((len(coefficients), 12), np.nan, dtype=np.complex128)
            raise NumericalFailure("forced residual failure")

        monkeypatch.setattr(featset, "polynomial_roots", fail)
        frames = frame_stream(_random_segment(np.random.default_rng(6), voiced=True))
        window = make_window(WindowKind.HANN, FRAME_LEN)
        pair = featset._formant_pair(apply_window(frames[0].samples, window))
        assert np.array_equal(pair, np.zeros(2))

        classifier = OnlineClassifier(formant_bundle)
        for frame in frames:
            classifier.push_frame(frame)
        classifier.finish_segment()
        decision = classifier.decision()
        assert classifier.state.votes_cast == len(frames) - 14
        assert np.array_equal(decision.frame_indices, np.arange(14, len(frames)))
        assert np.all(decision.frame_scores == formant_bundle.decide(np.zeros(30)))


def test_trigger_time():
    segment = make_segment(sine(200, 0.5), start_ms=1000)
    assert trigger_time_ms(segment, 0) == 1025.0
    assert trigger_time_ms(segment, 10) == 1125.0


class TestSegmentScore:
    def test_max_rolling_mean(self):
        from nlconfirm.pipeline import segment_score
        scores = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        decision = decision_from_scores("s", np.arange(scores.size), scores)
        # best 5-window holds votes [-1,+1,+1,+1,-1] -> mean 0.2
        assert segment_score(decision) == pytest.approx(0.2)

    def test_short_segment_uses_available_votes(self):
        from nlconfirm.pipeline import segment_score
        decision = decision_from_scores("s", np.arange(3), np.array([1.0, 1.0, -1.0]))
        assert segment_score(decision) == pytest.approx(1.0 / 3.0)
