"""Tree-based semantic losses, OOD gating and hierarchical evaluation."""

from .distances import distance_matrix, solve_transport_lp, tree_wasserstein
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyEvalError,
    EmptyMaskError,
    LabelError,
    NormalizationError,
    ParseError,
    RangeError,
    ShapeError,
    StructureError,
    TreesegError,
    ValidationError,
    WeightError,
)
from .evaluation import EvalReport, confusion, dice_scores, evaluate_level, nsd_scores, ovr_scores
from .gating import PredictionField, ThresholdPolicy, default_grid, gate, score_at_level, sweep_tau
from .hierarchy import (
    EdgeWeightScheme,
    LabelTree,
    NodeRecord,
    adjacency,
    assign_weights,
    level_nodes,
    parse_tree,
    random_tree,
    serialize,
)
from .losses import (
    LossSpec,
    aggregate,
    compound_twce,
    compound_wass,
    make_loss,
    seg_loss_ce,
    seg_loss_dice,
    softmax,
    tree_weighted_ce,
    wasserstein_crisp,
)
from .synth import Corpus, FoldSpec, SynthConfig, generate, load_corpus, make_folds, save_corpus
from .training import ModelParams, TrainConfig, l1_normalize, load_model, predict, save_model, train

__version__ = "0.1.0"
