import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakenode import (
    BUILTIN_PROFILES,
    BinarySignal,
    CalPoint,
    CircuitParams,
    MicCandidate,
    MicConfiguration,
    NodeConfig,
    PowerProfile,
    Scenario,
    ScenarioSegment,
    Signal,
    amplify,
    battery_lifetime_days,
    build_urban_scenario,
    envelope_detect,
    savings_percent,
    simulate,
    simulate_from_wake,
    threshold_out,
)
from wakenode.cli import CSV_BLOCK_ROWS, _trace_csv
from wakenode.powersim import SimTrace, WakeRuns, _merged

ZIGBEE_STANDALONE = BUILTIN_PROFILES["zigbee-standalone"]


def closed_form_avg(duty: float, profile: PowerProfile) -> float:
    return duty * profile.transmit_mw + (1.0 - duty) * profile.sleep_mw


TraceRows = tuple[list[tuple[float, float, bool]], float, float, float]


def trace_rows(trace: SimTrace) -> TraceRows:
    """A trace's timeline rows and energy figures, to compare traces bit for
    bit; a row's state reads 1 for transmit and 0 for sleep."""
    bounds, transmit = trace.timeline()
    rows = list(zip(bounds, bounds[1:], transmit))
    return rows, trace.energy_mwh, trace.duty_cycle, trace.avg_power_mw


def trace_oracle(
    intervals: list[tuple[float, float]], total_s: float, config: NodeConfig
) -> TraceRows:
    """Sort-and-merge loop, then one row per wake run and sleep gap: the
    reference for the one-pass merge and timeline of ``powersim``."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))

    rows: list[tuple[float, float, bool]] = []
    cursor = 0.0
    for start, end in merged:
        if start > cursor:
            rows.append((cursor, start, False))
        rows.append((start, end, True))
        cursor = end
    if cursor < total_s or not rows:
        rows.append((cursor, total_s, False))

    profile = config.profile
    transmit_s = sum(end - start for start, end in merged)
    sleep_s = total_s - transmit_s
    energy_mwh = (transmit_s * profile.transmit_mw + sleep_s * profile.sleep_mw) / 3600.0
    return rows, energy_mwh, transmit_s / total_s, energy_mwh / (total_s / 3600.0)


def simulate_oracle(scenario: Scenario, config: NodeConfig) -> TraceRows:
    """Loop over the segments with a running time, the reference for simulate."""
    total_s = scenario.duration_s
    intervals: list[tuple[float, float]] = []
    t = 0.0
    for seg in scenario.segments:
        if seg.sound:
            intervals.append((t, min(t + seg.duration_s + config.hold_time_s, total_s)))
        t += seg.duration_s
    return trace_oracle(intervals, total_s, config)


def simulate_from_wake_oracle(wake: BinarySignal, config: NodeConfig) -> TraceRows:
    """Per-sample low-run scan, the reference for simulate_from_wake."""
    dt = 1.0 / wake.sample_rate_hz
    total_s = len(wake) * dt
    intervals: list[tuple[float, float]] = []
    run_start: int | None = None
    for i, high in enumerate(wake.samples):
        if not high and run_start is None:
            run_start = i
        elif high and run_start is not None:
            intervals.append((run_start * dt, min(i * dt + config.hold_time_s, total_s)))
            run_start = None
    if run_start is not None:
        intervals.append((run_start * dt, total_s))
    return trace_oracle(intervals, total_s, config)


@st.composite
def scenarios(draw: st.DrawFn) -> Scenario:
    """Scenarios with 1e-18 s segments (each starts where the next does),
    integer durations throughout or mixed in, and all-silent or all-sound
    segments."""
    integers = draw(st.booleans())
    durations = st.integers(1, 300) if integers else st.one_of(
        st.just(1e-18), st.floats(1e-3, 300.0), st.integers(1, 300)
    )
    sound = draw(st.sampled_from([st.booleans(), st.just(False), st.just(True)]))
    segments = draw(st.lists(st.tuples(durations, sound), min_size=1, max_size=30))
    return Scenario(tuple(ScenarioSegment(d, s) for d, s in segments))


def random_scenario(rng: np.random.Generator) -> Scenario:
    segments = tuple(
        ScenarioSegment(float(rng.uniform(0.1, 300.0)), bool(rng.integers(2)))
        for _ in range(int(rng.integers(1, 10)))
    )
    return Scenario(segments)


def random_profile(rng: np.random.Generator) -> PowerProfile:
    sleep = float(rng.uniform(0.0, 50.0))
    transmit = sleep + float(rng.uniform(0.5, 400.0))
    return PowerProfile("random", transmit, sleep)


class TestTypes:
    def test_profile_requires_strict_headroom(self):
        with pytest.raises(ValueError, match="below"):
            PowerProfile("x", 1.0, 1.0)

    def test_scenario_rejects_empty(self):
        with pytest.raises(ValueError, match="segments"):
            Scenario(())

    def test_node_config_validation(self):
        with pytest.raises(ValueError, match="hold_time_s"):
            NodeConfig(ZIGBEE_STANDALONE, hold_time_s=-1.0)
        with pytest.raises(ValueError, match="battery"):
            NodeConfig(ZIGBEE_STANDALONE, battery_mah=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: PowerProfile("x", v, 1.0),
            lambda v: PowerProfile("x", 10.0, v),
            lambda v: NodeConfig(ZIGBEE_STANDALONE, hold_time_s=v),
            lambda v: NodeConfig(ZIGBEE_STANDALONE, battery_mah=v),
            lambda v: NodeConfig(ZIGBEE_STANDALONE, battery_v=v),
            lambda v: ScenarioSegment(v, True),
            lambda v: CircuitParams(vdd_v=v),
            lambda v: CircuitParams(r1_ohm=v),
            lambda v: CircuitParams(r6_ohm=v),
            lambda v: CircuitParams(diode_drop_v=v),
            lambda v: MicCandidate("m", v, 0.5, MicConfiguration.ANALOG, 1.0, 3.0),
            lambda v: MicCandidate("m", 1.0, 0.5, MicConfiguration.ANALOG, v, 3.0),
            lambda v: MicCandidate("m", 1.0, 0.5, MicConfiguration.ANALOG, 1.0, v),
            lambda v: CalPoint(500.0, v),
        ],
        ids=[
            "transmit_mw", "sleep_mw", "hold_time_s", "battery_mah", "battery_v", "duration_s",
            "vdd_v", "r1_ohm", "r6_ohm", "diode_drop_v", "power_mw", "supply_min_v",
            "supply_max_v", "spl_db",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_builtin_profiles_are_bit_exact(self):
        assert BUILTIN_PROFILES["wifi"].transmit_mw == 357.59
        assert BUILTIN_PROFILES["wifi"].sleep_mw == 16.76
        assert BUILTIN_PROFILES["ble"].transmit_mw == 140.86
        assert BUILTIN_PROFILES["ble"].sleep_mw == 25.23
        assert BUILTIN_PROFILES["zigbee"].transmit_mw == 160.43
        assert BUILTIN_PROFILES["zigbee"].sleep_mw == 16.83
        assert ZIGBEE_STANDALONE.transmit_mw == 34.30
        assert ZIGBEE_STANDALONE.sleep_mw == 1.00


class TestSimulate:
    def test_all_silence_sleeps(self):
        scenario = Scenario((ScenarioSegment(100.0, False),))
        trace = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE))
        assert trace.duty_cycle == 0.0
        assert trace.avg_power_mw == pytest.approx(ZIGBEE_STANDALONE.sleep_mw)
        assert trace.wake_s.tolist() == []
        assert trace_rows(trace)[0] == [(0.0, 100.0, False)]

    def test_urban_scenario_closed_form(self):
        trace = simulate(build_urban_scenario(), NodeConfig(ZIGBEE_STANDALONE))
        assert trace.duty_cycle == pytest.approx(80.0 / 480.0, abs=1e-12)
        assert trace.avg_power_mw == pytest.approx(6.55, abs=1e-9)

    def test_all_sound_runs_at_transmit_power(self):
        scenario = Scenario((ScenarioSegment(60.0, True),))
        trace = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE))
        assert trace.duty_cycle == 1.0
        assert trace.avg_power_mw == pytest.approx(34.30)

    def test_hold_time_extends_wake(self):
        scenario = Scenario(
            (ScenarioSegment(10.0, True), ScenarioSegment(90.0, False))
        )
        trace = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=5.0))
        assert trace.duty_cycle == pytest.approx(15.0 / 100.0)

    def test_hold_merges_adjacent_wakes(self):
        scenario = Scenario(
            (
                ScenarioSegment(10.0, True),
                ScenarioSegment(3.0, False),
                ScenarioSegment(10.0, True),
                ScenarioSegment(77.0, False),
            )
        )
        trace = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=5.0))
        assert trace.wake_s.readonly
        assert trace.wake_s.tolist() == [0.0, pytest.approx(28.0)]
        assert list(trace.timeline()[1]) == [1, 0]

    def test_hold_capped_at_scenario_end(self):
        scenario = Scenario((ScenarioSegment(50.0, False), ScenarioSegment(10.0, True)))
        trace = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=100.0))
        assert trace.timeline()[0][-1] == pytest.approx(60.0)
        assert trace.duty_cycle == pytest.approx(10.0 / 60.0)

    def test_timeline_is_contiguous_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scenario = random_scenario(rng)
            config = NodeConfig(random_profile(rng), hold_time_s=float(rng.uniform(0, 60)))
            trace = simulate(scenario, config)
            bounds, transmit = trace.timeline()
            assert len(bounds) == len(transmit) + 1
            assert bounds[0] == 0.0
            assert bounds[-1] == scenario.duration_s
            assert all(a != b for a, b in zip(transmit, transmit[1:]))

    @pytest.mark.parametrize("hold_time_s", [0.0, 0.5, 3.0])
    def test_equal_starts_match_loop_oracle(self, hold_time_s):
        # 1.0 + 1e-18 == 1.0, so each 1e-18 s segment starts where the next
        # segment does, and with no hold it is a transmit row of zero length
        scenario = Scenario(
            (
                ScenarioSegment(1.0, False),
                ScenarioSegment(1e-18, True),
                ScenarioSegment(2.0, True),
                ScenarioSegment(1e-18, True),
                ScenarioSegment(1.0, False),
                ScenarioSegment(1e-18, True),
                ScenarioSegment(4.0, False),
            )
        )
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_time_s)
        assert trace_rows(simulate(scenario, config)) == simulate_oracle(scenario, config)

    def test_random_scenarios_match_loop_oracle(self):
        rng = np.random.default_rng(14)
        merged = 0
        for _ in range(400):
            n = int(rng.integers(1, 40))
            durations = np.where(rng.random(n) < 0.2, 1e-18, rng.uniform(0.1, 50.0, n))
            scenario = Scenario(
                tuple(ScenarioSegment(float(d), bool(rng.integers(2))) for d in durations)
            )
            hold_time_s = float(rng.uniform(0.0, 40.0)) if rng.integers(3) else 0.0
            config = NodeConfig(random_profile(rng), hold_time_s=hold_time_s)
            trace = simulate(scenario, config)
            assert trace_rows(trace) == simulate_oracle(scenario, config)
            sound = sum(seg.sound for seg in scenario.segments)
            merged += len(trace.wake_s) // 2 < sound
        assert merged > 100  # most scenarios merge some wakes

    @pytest.mark.parametrize(
        "durations,sound,hold_time_s",
        [
            ([1.0, 1e-18, 2.0, 1e-18, 1.0, 1e-18], [0, 1, 1, 1, 0, 1], 0.0),
            ([5.0, 1.0, 2.0], [0, 1, 0], 100.0),  # a hold past the end
            ([100.0, 20.0], [0, 0], 3.0),  # all silent
            ([60.0, 1e-18, 30.0], [1, 1, 1], 0.0),  # all sound
            ([20, 100, 20, 100], [1, 0, 1, 0], 0.0),  # integer durations: 0.0 and 240.0
            ([20, 1e-18, 100.5], [1, 1, 0], 7),
        ],
    )
    def test_one_pass_merge_equals_the_array_merge(self, durations, sound, hold_time_s):
        scenario = Scenario(
            tuple(ScenarioSegment(d, bool(s)) for d, s in zip(durations, sound))
        )
        self.check_against_oracle(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_time_s))

    @given(scenario=scenarios(), hold_time_s=st.one_of(st.just(0.0), st.floats(0.0, 2000.0)))
    @settings(max_examples=200, deadline=None)
    def test_random_one_pass_merge_equals_the_array_merge(self, scenario, hold_time_s):
        self.check_against_oracle(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_time_s))

    @staticmethod
    def check_against_oracle(scenario: Scenario, config: NodeConfig) -> None:
        """Bit-identical figures and rows, and trace.csv bytes that print
        the oracle's rows with ``%r`` of a float."""
        trace = simulate(scenario, config)
        rows, *figures = simulate_oracle(scenario, config)
        assert trace_rows(trace) == (rows, *figures)
        profile = config.profile
        states = [f"sleep,{float(profile.sleep_mw)!r}", f"transmit,{float(profile.transmit_mw)!r}"]
        text = "".join(f"{float(a)!r},{float(b)!r},{states[s]}\n" for a, b, s in rows)
        assert "".join(_trace_csv(trace, config)) == "t_start_s,t_end_s,state,power_mw\n" + text

    def test_nested_intervals_merge_as_the_loop_oracle(self):
        # neither caller passes an end below an earlier one; _merged takes it
        starts = [0.0, 1.0, 2.0, 6.0, 6.0, 9.0]
        ends = [5.0, 2.0, 3.0, 6.0, 7.0, 9.5]
        config = NodeConfig(ZIGBEE_STANDALONE)
        trace = _merged(zip(starts, ends), 10.0, config)
        assert trace_rows(trace) == trace_oracle(list(zip(starts, ends)), 10.0, config)

    @pytest.mark.parametrize(
        "runs", [CSV_BLOCK_ROWS // 2 - 1, CSV_BLOCK_ROWS // 2, 2 * CSV_BLOCK_ROWS]
    )
    @pytest.mark.parametrize("from_zero, to_end", [(False, False), (True, False), (True, True)])
    def test_trace_csv_over_many_blocks_prints_every_row(self, runs, from_zero, to_end):
        # each bound ends one row and starts the next, also across a block
        # edge; the first wake starts at 0 (no first sleep row) or at 1e-5,
        # which orjson spells 0.00001; the 16 kHz sample time 160001 / 16000
        # (10.0000625, whose orjson text holds "0.0000") falls mid-way, so in
        # the longest trace a middle block, not only the first, is all repr()
        drawn = np.random.default_rng(runs).uniform(0.0, 20.0, 2 * runs - 1)
        bounds = np.sort(np.append(drawn, 160001 / 16000))
        bounds[0] = 0.0 if from_zero else 1e-5
        total_s = float(bounds[-1]) if to_end else 20.0
        config = NodeConfig(ZIGBEE_STANDALONE)
        trace = _merged(zip(bounds[0::2].tolist(), bounds[1::2].tolist()), total_s, config)
        rows = trace_rows(trace)[0]
        assert len(rows) == 2 * runs + 1 - from_zero - to_end
        states = ["sleep,1.0", "transmit,34.3"]
        text = "".join(f"{a!r},{b!r},{states[s]}\n" for a, b, s in rows)
        assert "".join(_trace_csv(trace, config)) == "t_start_s,t_end_s,state,power_mw\n" + text

    def test_energy_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            scenario = random_scenario(rng)
            profile = random_profile(rng)
            trace = simulate(scenario, NodeConfig(profile))
            expected = closed_form_avg(trace.duty_cycle, profile)
            assert trace.avg_power_mw == pytest.approx(expected, rel=1e-9)
            hours = scenario.duration_s / 3600.0
            assert trace.energy_mwh == pytest.approx(expected * hours, rel=1e-9)

    def test_average_power_bounded_by_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            profile = random_profile(rng)
            trace = simulate(random_scenario(rng), NodeConfig(profile))
            assert profile.sleep_mw - 1e-12 <= trace.avg_power_mw <= profile.transmit_mw + 1e-12

    @given(hold_a=st.floats(0, 100), hold_b=st.floats(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_longer_hold_never_reduces_duty(self, hold_a, hold_b):
        lo, hi = sorted((hold_a, hold_b))
        scenario = build_urban_scenario()
        t_lo = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=lo))
        t_hi = simulate(scenario, NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hi))
        assert t_hi.duty_cycle >= t_lo.duty_cycle - 1e-12
        assert t_hi.avg_power_mw >= t_lo.avg_power_mw - 1e-9

    def test_power_scaling_scales_energy_not_duty(self):
        scenario = build_urban_scenario()
        base = PowerProfile("base", 40.0, 2.0)
        scaled = PowerProfile("scaled", 40.0 * 3.0, 2.0 * 3.0)
        t0 = simulate(scenario, NodeConfig(base))
        t1 = simulate(scenario, NodeConfig(scaled))
        assert t1.duty_cycle == t0.duty_cycle
        assert t1.avg_power_mw == pytest.approx(3.0 * t0.avg_power_mw, rel=1e-12)
        assert t1.energy_mwh == pytest.approx(3.0 * t0.energy_mwh, rel=1e-12)


class TestSimulateFromWake:
    def test_all_high_sleeps(self):
        wake = BinarySignal(np.ones(1000, dtype=bool), 100.0)
        trace = simulate_from_wake(wake, NodeConfig(ZIGBEE_STANDALONE))
        assert trace.duty_cycle == 0.0
        assert trace.avg_power_mw == pytest.approx(1.00)

    def test_half_low_gives_half_duty(self):
        samples = np.ones(1000, dtype=bool)
        samples[:500] = False
        trace = simulate_from_wake(BinarySignal(samples, 100.0), NodeConfig(ZIGBEE_STANDALONE))
        assert trace.duty_cycle == pytest.approx(0.5)

    def test_hold_applied_after_release_edge(self):
        samples = np.ones(1000, dtype=bool)
        samples[100:200] = False
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=1.0)  # 100 samples at 100 Hz
        trace = simulate_from_wake(BinarySignal(samples, 100.0), config)
        assert trace.duty_cycle == pytest.approx(200.0 / 1000.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            simulate_from_wake(BinarySignal(np.array([], dtype=bool), 100.0), NodeConfig(ZIGBEE_STANDALONE))

    @pytest.mark.parametrize(
        "pattern,hold_time_s",
        [
            ("0000000000", 0.0),  # all low
            ("1111111111", 0.0),  # all high
            ("1010110111", 0.0),  # single-sample runs
            ("0110110100", 0.0),  # runs at both ends, single-sample last run
            ("1111100000", 0.0),  # run ending at the last sample
            ("1001101110", 0.0),
            ("1001101110", 0.02),  # hold merges the runs two samples apart
            ("1001101110", 0.03),  # hold merges every run
            ("1111111101", 0.05),  # hold capped at total_s
            ("0111111111", 1.0),  # hold from the first sample capped at total_s
        ],
    )
    def test_timeline_equals_loop_oracle(self, pattern, hold_time_s):
        wake = BinarySignal(np.array([c == "1" for c in pattern]), 100.0)
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_time_s)
        expected = simulate_from_wake_oracle(wake, config)
        assert trace_rows(simulate_from_wake(wake, config)) == expected

    @given(pattern=st.text("01", min_size=1, max_size=40), hold_samples=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_drawn_timeline_equals_loop_oracle(self, pattern, hold_samples):
        # the WAV route's random reference against the loop oracle, now that
        # no second merge exists to compare it with
        self.test_timeline_equals_loop_oracle(pattern, hold_samples / 100.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        low_share=st.floats(0.0, 1.0),
        rate_hz=st.sampled_from([3.0, 100.0, 16_000.0, 44_100.0]),
        hold_samples=st.floats(0.0, 20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_timeline_equals_loop_oracle(self, seed, n, low_share, rate_hz, hold_samples):
        rng = np.random.default_rng(seed)
        wake = BinarySignal(rng.random(n) >= low_share, rate_hz)
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_samples / rate_hz)
        expected = simulate_from_wake_oracle(wake, config)
        assert trace_rows(simulate_from_wake(wake, config)) == expected

    def test_threshold_chain_on_urban_audio(self):
        # end-to-end oracle: the wake signal must track the constructed
        # scenario's sound segments, with release lag from the envelope decay
        fs = 1000.0
        scenario = build_urban_scenario()
        t = np.arange(int(scenario.duration_s * fs)) / fs
        mic = np.zeros(t.size)
        cursor = 0.0
        for seg in scenario.segments:
            if seg.sound:
                idx = (t >= cursor) & (t < cursor + seg.duration_s)
                mic[idx] = 0.01 * np.sin(2 * np.pi * 100.0 * t[idx])
            cursor += seg.duration_s
        circuit = CircuitParams()
        envelope = envelope_detect(amplify(Signal(mic, fs), circuit), circuit)

        # threshold calibrated between the sound level and the decayed floor
        # reached late in the first silence window (the decay is slow)
        sound_level = np.max(envelope.samples[: int(20 * fs)])
        quiet_level = envelope.samples[int(119 * fs)]
        threshold_v = 0.94 * sound_level
        assert quiet_level < threshold_v < sound_level

        wake = threshold_out(envelope, threshold_v)
        trace = simulate_from_wake(wake, NodeConfig(ZIGBEE_STANDALONE))
        assert 0.15 <= trace.duty_cycle <= 0.25


class TestWakeRunsInChunks:
    @pytest.mark.parametrize(
        "pattern,splits",
        [
            ("1100001111", [4]),  # a low run across a chunk boundary
            ("1100001111", [2, 6]),  # boundaries on the run's first and release edges
            ("1111100000", [7]),  # a run still low at the last sample
            ("0000000000", [1, 5, 9]),  # low throughout, across every chunk
            ("1010110111", list(range(1, 10))),  # one sample per chunk
            ("0110110100", [3]),
        ],
    )
    @pytest.mark.parametrize("hold_time_s", [0.0, 0.02])
    def test_chunks_give_the_whole_signal_trace(self, pattern, splits, hold_time_s):
        samples = np.array([c == "1" for c in pattern])
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=hold_time_s)
        runs = WakeRuns(100.0)
        for part in np.split(samples, splits):
            runs.feed(part)
        whole = simulate_from_wake(BinarySignal(samples, 100.0), config)
        assert trace_rows(runs.trace(config)) == trace_rows(whole)

    def test_random_chunk_lengths_give_the_whole_signal_trace(self):
        rng = np.random.default_rng(12)
        samples = rng.random(5000) < 0.9  # many short low runs
        config = NodeConfig(ZIGBEE_STANDALONE, hold_time_s=0.05)
        whole = trace_rows(simulate_from_wake(BinarySignal(samples, 100.0), config))
        for seed in range(5):
            # chunks of 0 to 999 samples; the last takes what is left
            bounds = np.cumsum(np.random.default_rng(seed).integers(0, 1000, size=20))
            runs = WakeRuns(100.0)
            for part in np.split(samples, bounds[bounds < samples.size]):
                runs.feed(part)
            assert trace_rows(runs.trace(config)) == whole

    def test_nothing_fed_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WakeRuns(100.0).trace(NodeConfig(ZIGBEE_STANDALONE))


class TestSavings:
    @pytest.mark.parametrize(
        "name,expected",
        [("wifi", 95.3), ("ble", 82.1), ("zigbee", 89.5), ("zigbee-standalone", 97.1)],
    )
    def test_paper_totals_reproduced(self, name, expected):
        assert savings_percent(BUILTIN_PROFILES[name]) == pytest.approx(expected, abs=0.1)

    def test_near_equal_draws_approach_zero(self):
        profile = PowerProfile("flat", 100.0, 99.999999)
        assert savings_percent(profile) == pytest.approx(0.0, abs=1e-5)

    def test_scale_invariant(self):
        a = PowerProfile("a", 200.0, 30.0)
        b = PowerProfile("b", 200.0 * 7.0, 30.0 * 7.0)
        assert savings_percent(a) == pytest.approx(savings_percent(b), rel=1e-12)


class TestBatteryLifetime:
    def test_comparison_system_nine_days(self):
        assert 8.5 <= battery_lifetime_days(45.0, 2900.0, 3.3) <= 9.5

    def test_idle_node_four_hundred_days(self):
        assert 380.0 <= battery_lifetime_days(1.0, 2900.0, 3.3) <= 420.0

    def test_worst_case_eleven_days(self):
        assert 11.0 <= battery_lifetime_days(34.3, 2900.0, 3.3) <= 12.5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            battery_lifetime_days(0.0, 2900.0, 3.3)

    @pytest.mark.parametrize("avg_power_mw", [1e-320, 2e-321])
    def test_subnormal_draw_lasts_forever(self, avg_power_mw):
        assert battery_lifetime_days(avg_power_mw, 2900.0, 3.3) == math.inf


class TestUrbanScenario:
    def test_total_duration(self):
        assert build_urban_scenario().duration_s == 480.0

    def test_segment_count(self):
        assert len(build_urban_scenario().segments) == 8

    def test_sound_fraction(self):
        scenario = build_urban_scenario()
        sound = sum(s.duration_s for s in scenario.segments if s.sound)
        assert sound / scenario.duration_s == pytest.approx(80.0 / 480.0)

    def test_category_labels(self):
        labels = [s.label for s in build_urban_scenario().segments if s.sound]
        assert labels == ["human", "nature", "music", "mechanical"]

