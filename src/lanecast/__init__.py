"""Lane-level traffic speed forecasting with a two-stream convolutional network."""

from .errors import ConfigError, DataError, MetricError, NumericError, ShapeError
from .gradcheck import GradientCheckReport, gradient_check
from .layers import DenseParams, FilterBank
from .losses import composite_loss, speed_loss
from .model import (
    ArchitectureConfig,
    ConvForecaster,
    PersistenceModel,
    load_bundle,
    param_shapes,
    save_bundle,
)
from .optim import RmsProp
from .pipeline import (
    CorridorShape,
    NormalizationParams,
    Records,
    SampleSet,
    build_samples,
    denormalize,
    fit_normalization,
    normalize,
    prepare_dataset,
    read_records,
    split_dataset,
    write_records,
)
from .synth import SynthConfig, generate
from .training import (
    EvalReport,
    PredictionPair,
    TrainConfig,
    accuracy,
    dataset_loss,
    evaluate,
    predict_multistep,
    sweep,
    train,
)

__version__ = "0.1.0"
