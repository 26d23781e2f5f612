from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def mini_corpus_dir() -> Path:
    from naveval.text import data_dir

    return data_dir() / "mini_corpus"


@pytest.fixture(scope="session")
def test_data_dir() -> Path:
    return TESTS_DIR / "data"


@pytest.fixture(scope="session")
def kb_fixture_path() -> Path:
    return TESTS_DIR / "data" / "kb_fixture.tsv"


@pytest.fixture(scope="session")
def golden_report_path() -> Path:
    return TESTS_DIR / "data" / "golden_score_report.json"


@pytest.fixture(scope="session")
def golden_mean_synonyms_report_path() -> Path:
    return TESTS_DIR / "data" / "golden_score_report_mean_synonyms.json"
