"""Distribution-free prediction intervals for multi-step time series
forecasting, with online width adaptation under distribution shift."""

from .adaptive import (
    SlidingScoreWindow,
    aci_update,
    init_gamma,
    sample_without_replacement,
)
from .conformal import conformal_quantile, cqr_interval, score_cqr
from .data import (
    OracleIntervalSet,
    SyntheticConfig,
    gen_synthetic,
    load_csv,
    norm_quantile,
    save_wide_csv,
    split_train_test,
)
from .framing import (
    PredictionInterval,
    SupervisedFrame,
    TimeSeries,
    frame_mimo,
    frame_recursive,
    recursive_forecast,
)
from .metrics import EvalReport, aggregate_star, evaluate, miou, picp, pinaw
from .pipelines import (
    BootstrapEnsemble,
    FeedbackStream,
    RunResult,
    fit_ensemble,
    oob_predict,
    run_aenbmimocqr,
    run_enbcqr,
    run_enbpi,
    run_mimocqr,
)
from .quantile_net import (
    QuantileNet,
    TrainConfig,
    loss_and_gradients,
    mse_train,
    pinball_loss,
    train,
)

__version__ = "0.1.0"
