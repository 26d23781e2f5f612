"""Navigation-instruction evaluation toolkit.

Direction-aware SPICE-D scoring, DTW feature alignment with coverage and
contrastive losses, offline knowledge-fact retrieval, and metric-human
correlation analysis.
"""

__version__ = "0.1.0"

from .knowledge import (
    Detection,
    EntitySet,
    KnowledgeBase,
    KnowledgeBaseError,
    KnowledgeFact,
    gather_entities,
    load_kb,
    retrieve_facts,
)
from .metric import (
    ScoreReport,
    ScoringInput,
    SynonymMap,
    lcs_length,
    normalize_tuples,
    score_pair,
    spice_d_score,
    spice_score,
)
from .stats import (
    CorrelationReport,
    MetricCorrelation,
    correlate_metrics,
    pearson,
)
from .text import (
    DirectionPhrase,
    DirectionTaxonomy,
    Instruction,
    SubInstruction,
    chunk_instruction,
    direction_labels,
    load_taxonomy,
    load_verb_lexicon,
    parse_directions,
    span_text,
    tokenize,
)

__all__ = [
    "__version__",
    "TargetMatrix",
    "attention_coverage_loss",
    "build_cost",
    "contrastive_loss",
    "dtw_align",
    "expand_alignment",
    "softmax_attention",
    "target_from_word_map",
    "total_loss",
    "validate_alignment_matrix",
    "Detection",
    "EntitySet",
    "KnowledgeBase",
    "KnowledgeBaseError",
    "KnowledgeFact",
    "gather_entities",
    "load_kb",
    "retrieve_facts",
    "ScoreReport",
    "ScoringInput",
    "SynonymMap",
    "lcs_length",
    "normalize_tuples",
    "score_pair",
    "spice_d_score",
    "spice_score",
    "CorrelationReport",
    "MetricCorrelation",
    "correlate_metrics",
    "pearson",
    "DirectionPhrase",
    "DirectionTaxonomy",
    "Instruction",
    "SubInstruction",
    "chunk_instruction",
    "direction_labels",
    "load_taxonomy",
    "load_verb_lexicon",
    "parse_directions",
    "span_text",
    "tokenize",
]


def __getattr__(name: str) -> object:
    """Resolve naveval.align and its names on first access (PEP 562).

    naveval.align imports numpy, so importing naveval, and running every
    subcommand but align, does not load numpy. The names of __all__ that the
    imports above do not bind are exactly the naveval.align names.
    """
    if name == "align" or name in __all__:
        import importlib

        align = importlib.import_module(".align", __name__)
        return align if name == "align" else getattr(align, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
