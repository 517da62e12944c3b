"""Multi-rater consensus learning toolkit.

Simulates two-stage adjudicated grading over synthetic data, derives
per-branch training labels from the raw ratings, and trains a three-branch
classifier (sensitivity / specificity / balanced fusion) with a consensus
loss and uncertainty-weighted soft-label distillation.
"""

from .errors import (
    ContractError,
    DataError,
    EmptyDatasetError,
    ParameterError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .labels import (
    Branch,
    attach_soft_labels,
    compute_rater_weights,
    positive_probabilities,
    sample_branch_label,
    soft_label,
)
from .losses import fusion_loss
from .metrics import EvalReport, confusion_metrics, evaluate, roc_auc
from .model import (
    ModelConfig,
    ModelParams,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .simulate import (
    GradedDataset,
    GradingPanel,
    GradingRecord,
    RaterProfile,
    Samples,
    category_counts,
    default_panel,
    generate_dataset,
    grade_dataset,
    grade_sample,
    read_dataset_csv,
    split_dataset,
    write_dataset_csv,
)
from .train import TrainConfig, TrainState, fit, init_state, learning_rate, train_step

__version__ = "0.1.0"
