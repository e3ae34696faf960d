"""Byzantine-robust federated learning simulator.

The core rule suppresses outlier clients by scoring pairwise parameter
distances with a copula-based detector and softmax-weighting the average;
FedAvg, coordinate-wise median, trimmed mean, and Krum are included for
comparison under configurable poisoning attacks.
"""

from .aggregators import (
    AggregationResult,
    AggregatorSpec,
    aggregate_dos,
    aggregate_fedavg,
    aggregate_krum,
    aggregate_median,
    aggregate_trimmed_mean,
    run_rule,
)
from .attacks import (
    AttackPlan,
    Crafted,
    GaussianNoise,
    LabelFlip,
    Scale,
    apply_attack_plan,
    attack_crafted,
    attack_gaussian_noise,
    attack_label_flip,
    attack_scale,
)
from .config import ExperimentConfig, expand_scenario, parse_config_file, parse_config_text
from .copod import copod_scores
from .data import (
    LabeledDataset,
    generate_synthetic,
    make_train_test,
    partition_iid,
    partition_label_skew,
)
from .errors import ConfigError, DimensionError, DosflError, ExperimentError, NumericError
from .harness import (
    Metrics,
    RoundRecord,
    SimulationSetup,
    TrainConfig,
    evaluate,
    local_train,
    run_experiment,
    seed_stream,
)
from .models import ModelSpec, init_params, loss_and_grad, predict_proba
from .params import (
    DistancePair,
    pairwise_distances,
    softmax_weights,
    stack_updates,
    weighted_average,
)

__version__ = "0.1.0"
