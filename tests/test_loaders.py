"""The four library loaders read a file as the CLI does: UTF-8, a leading BOM dropped."""

import pytest

from naveval.knowledge import load_kb
from naveval.metric import SynonymMap
from naveval.text import data_dir, load_taxonomy, load_verb_lexicon

BOM = b"\xef\xbb\xbf"


def _kb(path):
    kb = load_kb(path)
    return kb.n_facts, kb._index


def _synonyms(path):
    return SynonymMap.load(path)._mapping


# Each loader, as a function of a path to a value that compares by content.
LOADERS = {
    "load_kb": _kb,
    "load_taxonomy": load_taxonomy,
    "SynonymMap.load": _synonyms,
    "load_verb_lexicon": load_verb_lexicon,
}


@pytest.fixture(params=LOADERS)
def loader(request, kb_fixture_path):
    """A loader and the bundled file it is tried on."""
    source = {
        "load_kb": kb_fixture_path,
        "load_taxonomy": data_dir() / "taxonomies" / "r2r.json",
        "SynonymMap.load": data_dir() / "synonyms" / "example.json",
        "load_verb_lexicon": data_dir() / "verbs.txt",
    }[request.param]
    return LOADERS[request.param], source


def test_bom_file_loads_as_its_copy_without_one(tmp_path, loader):
    load, source = loader
    copy = tmp_path / source.name
    copy.write_bytes(BOM + source.read_bytes())
    assert load(copy) == load(source)


def test_bad_byte_offset_counts_the_bom(tmp_path, loader):
    load, source = loader
    copy = tmp_path / source.name
    head = source.read_bytes()[:20]
    copy.write_bytes(BOM + head + b"\xff")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        load(copy)
    # utf-8-sig would name the offset after the BOM.
    assert excinfo.value.start == len(BOM) + len(head)
