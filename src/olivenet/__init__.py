"""olivenet: 1D-CNN chemometrics for olive oil fluorescence spectra.

Predicts the five chemical quality parameters (acidity, peroxide value,
K270, K232, ethyl esters) from single fluorescence spectra and grades oils
against regulatory limits.  Includes a synthetic spectrum generator so the
whole pipeline runs end to end without instrument data.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    OilRecord,
    ParameterId,
    Quality,
    Spectrum,
    WavelengthGrid,
    default_grid,
    filter_for_parameter,
    load_bundled_labels,
    load_labels,
    normalize,
)
from .synth import (
    GeneratorConfig,
    ParameterCoupling,
    PeakSpec,
    default_generator_config,
    generate_dataset,
    generate_spectrum,
)
from .nn import (
    Conv1DLayer,
    DenseLayer,
    HyperParams,
    Network,
    build_network,
    forward,
    load_network,
    mse_loss,
    save_network,
    train,
)
from .evaluation import (
    CvSummary,
    FoldResult,
    loocv,
    loocv_checkpoint_runs,
    mae,
    select_checkpoint,
)
from .stats import (
    TTestReport,
    compare_configs,
    pooled_sd,
    t_critical,
    t_statistic,
)
from .quality import (
    QualityVerdict,
    ThresholdSet,
    classify,
    default_thresholds,
)
