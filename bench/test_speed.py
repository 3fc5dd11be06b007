"""Scaling of operation times by the speed reference."""

import pytest

import speed


def _samples(*stamped):
    """Instant samples (begin = end) from (time, reference seconds) pairs."""
    return [(t, t, ref) for t, ref in stamped]


def test_scale_divides_by_the_reference_around_each_operation():
    ref = speed.REFERENCE_S
    # the machine runs at half speed (reference takes twice as long) until t = 1
    samples = _samples((0.0, 2 * ref), (0.5, 2 * ref), (1.0, ref), (1.5, ref), (2.0, ref))
    spans = [(0.1, 0.3), (1.2, 1.4)]
    assert speed.scale(spans, samples) == pytest.approx([0.1, 0.2])


def test_long_operation_uses_the_samples_around_it():
    ref = speed.REFERENCE_S
    samples = _samples((0.0, ref), (3.0, 3 * ref), (3.1, 3 * ref), (9.0, ref))
    # one operation from 0 to 3: samples within 3 s of it are the first three
    (scaled,) = speed.scale([(0.0, 3.0)], samples)
    assert scaled == pytest.approx(3.0 * 3 / 7)


def test_samples_inside_an_operation_give_its_speed_and_leave_out_their_time():
    ref = speed.REFERENCE_S
    # full speed outside, half speed inside the operation from 0 to 3, where
    # two samples of 0.1 s each were taken
    samples = [(-1.0, -1.0, ref), (1.0, 1.1, 2 * ref), (2.0, 2.1, 2 * ref), (9.0, 9.0, ref)]
    (scaled,) = speed.scale([(0.0, 3.0)], samples)
    # the last sample before it counts too: mean reference 5/3 ref
    assert scaled == pytest.approx(2.8 * 3 / 5)


def test_tick_samples_only_in_a_round_and_after_the_interval():
    speed.tick()
    speed.start_round()
    speed.tick()  # too soon after the round's first sample
    speed._round[-1] = (0.0, 0.0, speed.REFERENCE_S)  # pretend it is old
    speed.tick()
    samples = speed.end_round()
    assert len(samples) == 3 and speed._round == []


def test_reference_is_positive_and_repeatable():
    a, b = speed.reference(), speed.reference()
    assert a > 0 and b > 0 and max(a, b) < 50 * min(a, b)


def test_probe_seconds_scales_each_stretch_by_the_samples_around_it():
    from run import probe_seconds

    ref = speed.REFERENCE_S
    # start at 0; samples at [1, 2) at half speed, [3, 4) and [5, 6) at full speed
    probe = [(1.0, 2.0, 2 * ref), (3.0, 4.0, ref), (5.0, 6.0, ref)]
    # 1 s at half speed, 1 s at the mean of half and full speed, 1 s at full speed
    assert probe_seconds(0.0, probe) == pytest.approx(0.5 + 2 / 3 + 1.0)
