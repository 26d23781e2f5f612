"""Navigation-instruction evaluation toolkit.

Direction-aware SPICE-D scoring, DTW feature alignment with coverage and
contrastive losses, offline knowledge-fact retrieval, and metric-human
correlation analysis. Each public name lives in one submodule and is spelled
naveval.<submodule>.<name>.
"""

__version__ = "0.1.0"

_SUBMODULES = ("align", "cli", "knowledge", "metric", "stats", "text")


def __getattr__(name: str) -> object:
    # PEP 562: perfbench reads naveval.metric unimported; import naveval loads no submodule (so no numpy).
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
