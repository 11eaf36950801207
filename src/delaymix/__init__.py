"""Streaming identification and forecasting for mixtures of time-delay systems."""

from .cpd import Alignment, AlsOptions, CPFactors, align_components, cp_als, reconstruct
from .datagen import (
    InputDistribution,
    ScenarioSpec,
    generate,
    oracle_moment_tensor,
    persistence_baseline,
    random_stable_model,
    random_stable_system,
)
from .engine import (
    EngineConfig,
    EngineState,
    MetricsSummary,
    RegimeDatabase,
    UpdateReport,
    default_config,
    engine_init,
    engine_update,
    load_checkpoint,
    run_horizons,
    run_stream,
    save_checkpoint,
)
from .errors import DelayMixError
from .filtering import (
    BeliefTrace,
    NoiseSpec,
    SmoothedTrace,
    forecast,
    kalman_forward,
    rts_smoother,
    select_regime,
    window_error,
)
from .moments import (
    MomentConfig,
    SystemTensor,
    accumulate_window,
    new_tensor,
    normalized_view,
)
from .realization import (
    RealizationOptions,
    factor_to_markov,
    ho_kalman,
    realize_components,
)
from .syslin import (
    DelayFreeModel,
    MarkovSequence,
    TimeDelaySystem,
    Trajectory,
    detect_delay,
    embed_delay,
    embedded_state,
    markov_parameters_delayed,
    markov_parameters_free,
    simulate_delay_free,
    simulate_delayed,
    spectral_norm_profile,
)

__version__ = "0.1.0"
