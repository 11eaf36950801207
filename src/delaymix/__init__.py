"""Streaming identification and forecasting for mixtures of time-delay systems."""

from .cpd import CPFactors, cp_als, reconstruct
from .datagen import (
    InputDistribution,
    ScenarioSpec,
    generate,
    persistence_baseline,
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
    save_checkpoint,
)
from .errors import DelayMixError
from .filtering import (
    FilterTrace,
    NoiseSpec,
    filter_window,
    forecast,
    kalman_forward,
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
    ModelRecord,
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
    response_maps,
    simulate_delay_free,
    simulate_delayed,
    spectral_norm_profile,
)

__version__ = "0.1.0"
