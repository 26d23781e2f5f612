"""Navigation-instruction evaluation toolkit.

Direction-aware SPICE-D scoring, DTW feature alignment with coverage and
contrastive losses, offline knowledge-fact retrieval, and metric-human
correlation analysis.
"""

__version__ = "0.1.0"

# The submodule that defines each public name.
_HOMES = {
    "align": (
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
    ),
    "knowledge": (
        "KnowledgeBase",
        "KnowledgeBaseError",
        "KnowledgeFact",
        "load_kb",
        "retrieve_facts",
    ),
    "metric": (
        "ScoreReport",
        "ScoringInput",
        "SynonymMap",
        "lcs_length",
        "normalize_tuples",
        "score_pair",
        "spice_d_score",
        "spice_score",
    ),
    "stats": (
        "CorrelationReport",
        "MetricCorrelation",
        "correlate_metrics",
        "pearson",
    ),
    "text": (
        "DirectionTaxonomy",
        "Instruction",
        "chunk_instruction",
        "direction_labels",
        "load_taxonomy",
        "load_verb_lexicon",
        "span_text",
        "tokenize",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", *_HOMES)

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str) -> object:
    """Resolve the submodules and the public names on first access (PEP 562).

    So importing naveval loads no submodule, each subcommand imports only the
    modules it runs, and only naveval.align imports numpy.
    """
    if name in _SUBMODULES or name in _HOME_OF:
        import importlib

        module = importlib.import_module(f".{_HOME_OF.get(name, name)}", __name__)
        return module if name in _SUBMODULES else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
