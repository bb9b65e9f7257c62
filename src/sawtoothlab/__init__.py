"""sawtoothlab: a deterministic laboratory for the epoch-boundary sawtooth
pattern that adaptive gradient optimizers imprint on training loss curves.

The package replicates the pattern on an incremental quadratic testbed,
instruments the optimizer state around epoch boundaries, and fits small
closed-form models to the recorded probe series.
"""

__version__ = "0.1.0"

from .analysis import (
    EspMetrics,
    FitResult,
    esp_metrics,
    evaluate_fit,
    fit_dot_dtheta,
    fit_dot_m,
    fit_g_norm,
    fit_m_norm,
    fit_v_norm,
    nshape_delta,
    nshape_sweep,
    predict_loss_curve,
    window_average,
)
from .optim import (
    AdamConfig,
    NonFiniteGradientError,
    OptimizerState,
    StepWorkspace,
    UpdateResult,
    adam_step,
    rmsprop_step,
    sgd_momentum_step,
)
from .problem import (
    Batch,
    QuadraticProblem,
    batch_grad,
    batch_loss,
    batch_loss_grad,
    full_loss,
    full_loss_minimum,
    generate_quadratic,
    toy_losses,
)
from .schedule import (
    EpochSchedule,
    batches_per_epoch,
    boundary_overlap_mc,
    expected_overlap,
)
from .trainer import (
    RunConfig,
    RunResult,
    Trace,
    oscillation_amplitude,
    probe_epoch_start_losses,
    run,
    run_toy,
)

__all__ = [
    "__version__",
    "AdamConfig",
    "OptimizerState",
    "StepWorkspace",
    "UpdateResult",
    "NonFiniteGradientError",
    "adam_step",
    "rmsprop_step",
    "sgd_momentum_step",
    "QuadraticProblem",
    "Batch",
    "generate_quadratic",
    "batch_loss",
    "batch_grad",
    "batch_loss_grad",
    "full_loss",
    "full_loss_minimum",
    "toy_losses",
    "EpochSchedule",
    "batches_per_epoch",
    "expected_overlap",
    "boundary_overlap_mc",
    "RunConfig",
    "RunResult",
    "Trace",
    "run",
    "run_toy",
    "probe_epoch_start_losses",
    "oscillation_amplitude",
    "EspMetrics",
    "FitResult",
    "esp_metrics",
    "window_average",
    "fit_g_norm",
    "fit_m_norm",
    "fit_v_norm",
    "fit_dot_m",
    "fit_dot_dtheta",
    "evaluate_fit",
    "predict_loss_curve",
    "nshape_delta",
    "nshape_sweep",
]
