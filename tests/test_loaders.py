"""Every file loader, fed arbitrary bytes, loads or raises DataError naming the file;
an empty input file is an error for each loader that needs an entry; a leading
byte order mark changes nothing a loader reads."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clirset.combiner import load_weights
from clirset.corpus import (
    load_bitext,
    load_corpus,
    load_judgments,
    load_queries,
    load_translation_table,
)
from clirset.errors import DataError
from clirset.evidence import load_mt_ensemble, load_mt_hypotheses, load_searcher
from clirset.thresholder import load_cutoffs, load_returned_sets

LOADERS = [
    load_corpus,
    load_translation_table,
    load_bitext,
    load_queries,
    load_judgments,
    load_mt_hypotheses,
    load_mt_ensemble,
    load_weights,
    load_cutoffs,
    load_returned_sets,
    load_searcher,
]

# Characters the file formats are made of, so that examples often get past
# the first field check; raw bytes cover everything else.
FORMAT_TEXT = st.text(alphabet='\t\n #=,.+-0123456789eE_abdfqst"{}[]:é', max_size=200)

# Nesting too deep for the JSON decoder, and an arc probability too large
# for a float.
DEEP_JSON = b"[" * 100_000
HUGE_ARC_PROB = b'{"id":"d","kind":"speech","utterances":[[[["a",1%s]]]]}' % (b"0" * 400)
# Well-formed JSON that no ensemble model may hold.
MISMATCHED_MODEL = b'{"systems": ["a"], "weights": [], "bias": 0}'


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@given(data=st.one_of(st.binary(max_size=200), FORMAT_TEXT.map(str.encode)))
@example(data=b"")
@example(data=b"q1\tvirus spread\n\xff\n")
@example(data=DEEP_JSON)
@example(data=HUGE_ARC_PROB)
@example(data=MISMATCHED_MODEL)
def test_loads_or_names_the_file(scratch, loader, data):
    path = scratch / f"{loader.__name__}.txt"
    path.write_bytes(data)
    try:
        loader(path)
    except DataError as exc:
        assert str(path) in str(exc)


# Each loader whose file must hold an entry, and what it says of a file
# with none.
EMPTY_FILE_ERRORS = {
    load_corpus: "corpus file is empty",
    load_translation_table: "translation table file is empty",
    load_bitext: "bitext file is empty",
    load_queries: "query file is empty",
    load_mt_hypotheses: "empty hypothesis file",
    load_weights: "empty mixture weight file",
}


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["no-lines", "blank-lines"])
@pytest.mark.parametrize("loader", EMPTY_FILE_ERRORS, ids=lambda loader: loader.__name__)
def test_empty_file_names_the_file(tmp_path, loader, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as raised:
        loader(path)
    assert str(raised.value) == f"{path}: {EMPTY_FILE_ERRORS[loader]}"


# Each text loader, and a file it loads whose first field is where a byte
# order mark would land.
BOM_INPUTS = {
    load_corpus: json.dumps({"id": "d1", "kind": "text", "sentences": ["a b"]}) + "\n",
    load_translation_table: "f1\te1\t0.5\n",
    load_bitext: "f1 f2\te1\n",
    load_queries: "q1\tvirus spread\n",
    load_judgments: "q1\td1\n",
    load_weights: "table\t1.0\n",
    load_cutoffs: "q1\t2\t0.5\n",
    load_returned_sets: "q1\td1\n",
}


@pytest.mark.parametrize("loader", BOM_INPUTS, ids=lambda loader: loader.__name__)
def test_leading_byte_order_mark_is_ignored(tmp_path, loader):
    plain, marked = tmp_path / "plain" / "input.tsv", tmp_path / "marked" / "input.tsv"
    for path, prefix in ((plain, ""), (marked, "\ufeff")):
        path.parent.mkdir()
        path.write_text(prefix + BOM_INPUTS[loader], encoding="utf-8")
    assert loader(marked) == loader(plain)
