import math
import re

import numpy as np
import pytest

from delaymix import (
    DelayFreeModel,
    InputDistribution,
    MarkovSequence,
    MomentConfig,
    NoiseSpec,
    TimeDelaySystem,
    Trajectory,
    cp_als,
    default_config,
    engine_init,
    engine_update,
    filter_window,
    forecast,
    ho_kalman,
    kalman_forward,
    persistence_baseline,
    response_maps,
    simulate_delay_free,
)
from delaymix.errors import DelayMixError, ShapeError
from oracles import markov_parameters_delayed, markov_parameters_free

MODEL = DelayFreeModel(0.5, 1.0, 1.0)
WINDOW = Trajectory(np.ones((4, 1)), np.ones((4, 1)))
SHORT = Trajectory(np.ones((3, 1)), np.ones((3, 1)))
[MAP] = kalman_forward([MODEL], 4, NoiseSpec())
[SHORT_MAP] = kalman_forward([MODEL], 3, NoiseSpec())
[RESPONSE] = response_maps([MODEL], 4)
SEQUENCE = MarkovSequence(np.ones(4))
TENSOR = np.ones((2, 2, 2))
TRACE = filter_window(MAP, WINDOW)
ENGINE = engine_init(default_config(d=1, dc=1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: InputDistribution("poisson"),
        lambda: InputDistribution.gaussian(-1.0),
        lambda: InputDistribution.uniform(math.inf),
        lambda: TimeDelaySystem(0.5, 1.0, 1.0, delay=-1),
        lambda: NoiseSpec(obs_var=0.0),
        lambda: NoiseSpec(process_var=math.inf),
        lambda: ho_kalman(SEQUENCE, 0),
        lambda: ho_kalman(SEQUENCE, 1, order=0),
        lambda: simulate_delay_free(MODEL, np.zeros((0, 1))),
        lambda: markov_parameters_free(MODEL, 0),
        lambda: markov_parameters_delayed(TimeDelaySystem(0.5, 1.0, 1.0), 0),
        lambda: filter_window(MAP, Trajectory(np.ones((4, 2)), np.ones((4, 1)))),
        lambda: filter_window(np.ones((3, 6)), WINDOW),
        lambda: filter_window(np.ones((4, 8)), WINDOW),
        lambda: filter_window(np.ones((5, 7)), WINDOW),
        lambda: forecast(RESPONSE, WINDOW, np.ones((2, 1)), filter_window(SHORT_MAP, SHORT)),
        lambda: forecast(np.ones((5, 4)), WINDOW, np.ones((2, 1)), TRACE),
        lambda: forecast(RESPONSE, WINDOW, np.ones((0, 1)), TRACE),
        lambda: response_maps([], 4),
        lambda: response_maps([MODEL, DelayFreeModel(0.5, 1.0, [[1.0], [1.0]])], 4),
        lambda: response_maps([MODEL], 0),
        lambda: kalman_forward([], 4, NoiseSpec()),
        lambda: kalman_forward([MODEL, DelayFreeModel(0.5, 1.0, [[1.0], [1.0]])], 4, NoiseSpec()),
        lambda: kalman_forward([MODEL], 0, NoiseSpec()),
        lambda: cp_als(TENSOR, 1, max_iters=0),
        lambda: cp_als(TENSOR, 1, tol=0.0),
        lambda: persistence_baseline(Trajectory(np.ones((0, 1)), np.ones((0, 1))), 1),
        lambda: persistence_baseline(WINDOW, 0),
        lambda: MomentConfig(d=1, dc=1, s=1, forgetting="0.5"),
        lambda: MomentConfig(d=1, dc=1, s=1, forgetting=None),
        lambda: NoiseSpec("a"),
        lambda: Trajectory(["a"], [1.0]),
        lambda: Trajectory([[1.0], [1.0, 2.0]], np.ones((2, 1))),
        lambda: engine_update(ENGINE, [["a"]] * 21, np.ones((22, 1))),
        lambda: TimeDelaySystem(np.nan, 1.0, 1.0),
        lambda: TimeDelaySystem(0.5, 1.0, 1.0, delay="a"),
        lambda: TimeDelaySystem(0.5, 1.0, 1.0, delay=None),
        lambda: TimeDelaySystem(0.5, 1.0, 1.0, delay=True),
        lambda: TimeDelaySystem(0.5, 1.0, 1.0, delay=1.5),
        lambda: TimeDelaySystem("a", 1.0, 1.0),
        lambda: DelayFreeModel([[1.0], [1.0, 2.0]], 1.0, 1.0),
        lambda: InputDistribution("gaussian", "a"),
    ],
    ids=[
        "input-kind", "input-scale-negative", "input-scale-inf", "delay", "noise", "noise-inf",
        "hankel-size", "realization-order", "empty-inputs", "markov-horizon",
        "delayed-markov-horizon", "window-channels", "map-shape", "map-rows", "map-columns",
        "forecast-trace", "forecast-response-shape", "forecast-no-steps", "response-no-models",
        "response-mixed-dims", "response-no-steps",
        "map-no-models", "map-mixed-dims", "map-no-steps",
        "als-max-iters", "als-tol", "persistence-window", "persistence-horizon",
        "forgetting-text", "forgetting-none", "noise-text", "trajectory-text",
        "trajectory-ragged", "engine-text", "system-nan", "delay-text", "delay-none",
        "delay-bool", "delay-fraction", "system-text", "model-ragged", "input-scale-text",
    ],
)
def test_bad_argument_raises_a_delaymix_value_error(call):
    # a DelayMixError reaches the CLI's error line; ValueError keeps the
    # callers that catch it working
    with pytest.raises(DelayMixError) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("delay", [2, np.int64(2), 2.0, np.float32(2.0)])
def test_integral_delay_accepted(delay):
    system = TimeDelaySystem(0.5, 1.0, 1.0, delay=delay)
    assert type(system.delay) is int and system.delay == 2


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda v: TimeDelaySystem(0.5, 1.0, 1.0, delay=v), "a"),
        (lambda v: TimeDelaySystem(0.5, 1.0, 1.0, delay=v), None),
        (lambda v: TimeDelaySystem(v, 1.0, 1.0), "a"),
        (lambda v: DelayFreeModel(v, 1.0, 1.0), [[1.0], [1.0, 2.0]]),
        (lambda v: InputDistribution("uniform", v), "a"),
    ],
    ids=["delay-text", "delay-none", "matrix-text", "matrix-ragged", "scale-text"],
)
def test_malformed_value_is_named(make, value):
    # the message quotes what was passed, so a caller can find it
    with pytest.raises(DelayMixError, match=re.escape(repr(value))):
        make(value)


BUILDERS = {
    "filter": lambda steps: kalman_forward([MODEL], steps, NoiseSpec()),
    "response": lambda steps: response_maps([MODEL], steps),
}


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None], ids=repr)
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_map_builder_refuses_non_integer_step_count(builder, steps):
    with pytest.raises(ShapeError, match=f"integer step count .*got {re.escape(repr(steps))}"):
        BUILDERS[builder](steps)
