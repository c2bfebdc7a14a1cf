"""Speaker-aware multi-turn response selection at desk scale.

Pipeline pieces: corpus ingestion, speaker-based channel disentanglement, a
deterministic tokenizer, three-track input encoding, a small numpy
transformer with exact analytic gradients, two-phase training and a
ranking/evaluation harness.
"""

from .corpus import CandidatePool, CorpusError, Utterance
from .disentangle import FilteredContext, filter_channel
from .encoding import EncodedInput, MatchingInstance, build_input, encode_instance, mark_turns
from .evaluation import RankedPool, compute_report, pool_metrics, select_threshold
from .model import ModelConfig, backward, forward_batch, init_params, score_batch, stack_inputs
from .tokenizer import Vocabulary, build_vocab, tokenize
from .training import TrainConfig, plan_masking, train

__version__ = "0.1.0"

__all__ = [
    "CandidatePool",
    "CorpusError",
    "EncodedInput",
    "FilteredContext",
    "MatchingInstance",
    "ModelConfig",
    "RankedPool",
    "TrainConfig",
    "Utterance",
    "Vocabulary",
    "backward",
    "build_input",
    "build_vocab",
    "compute_report",
    "encode_instance",
    "filter_channel",
    "forward_batch",
    "init_params",
    "mark_turns",
    "plan_masking",
    "pool_metrics",
    "score_batch",
    "select_threshold",
    "stack_inputs",
    "tokenize",
    "train",
]
