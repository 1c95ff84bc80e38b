"""Every file loader, fed arbitrary bytes, loads or raises DataError naming the file."""

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
from clirset.evidence import load_mt_ensemble, load_mt_hypotheses
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
