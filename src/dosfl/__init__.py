"""Byzantine-robust federated learning simulator.

The core rule suppresses outlier clients by scoring pairwise parameter
distances with a copula-based detector and softmax-weighting the average;
FedAvg, coordinate-wise median, trimmed mean, and Krum are included for
comparison under configurable poisoning attacks.
"""

from .aggregators import aggregate_dos
from .config import ExperimentConfig, parse_config_text
from .harness import run_experiment
from .params import stack_updates
