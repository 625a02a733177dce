"""Decision-based search agent for knowledge-grounded visual QA.

The package covers the full loop: a tag protocol the model speaks
(:mod:`dbagent.protocol`), dense retrieval over an article corpus
(:mod:`dbagent.kb`, :mod:`dbagent.retrieval`), model backends
(:mod:`dbagent.gateway`), the multi-turn rollout engine
(:mod:`dbagent.runtime`), a three-stage trajectory factory
(:mod:`dbagent.factory`), SFT emission with evidence masking
(:mod:`dbagent.sft`), and the evaluation harness
(:mod:`dbagent.evaluation`).
"""

from types import ModuleType as _ModuleType

from .errors import BackendError, DataError
from .factory import (
    BranchOutcome,
    FactoryConfig,
    QaSample,
    judge_answer,
    load_qa_dataset,
    normalize_answer,
    run_factory,
    sample_balanced,
)
from .gateway import (
    ChatMessage,
    GenerationParams,
    HttpChatBackend,
    ScriptedBackend,
    ScriptedRule,
    load_script,
)
from .kb import Corpus, KbArticle, load_corpus, subsample_corpus
from .protocol import (
    ActionKind,
    ProtocolViolation,
    TurnRecord,
    make_turn,
    parse_turn,
    render_evidence,
    serialize_turn,
    validate_in_context,
)
from .retrieval import (
    DeterministicEmbedder,
    RemoteEmbedder,
    build_image_index,
    build_text_index,
    image_search,
    load_index,
    save_index,
    text_search,
)
from .runtime import (
    ImageRetriever,
    RolloutConfig,
    TextRetriever,
    ToolBinding,
    Trajectory,
    batch_rollout,
    read_trajectory_file,
    rollout,
    write_trajectory_file,
)
from .sft import LinearizedSample, emit_dataset, linearize, read_sft_file, scan_sft_file
from .evaluation import (
    EvalRecord,
    Report,
    aggregate,
    build_eval_records,
    run_kb_scale,
    run_topk_grid,
    score_answer,
)

__version__ = "0.1.0"

# Each name imported above is an export; the submodules those imports bind
# as attributes of the package are not.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
