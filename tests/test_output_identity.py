"""Output-identity guard: the whole pipeline on tiny worlds, pinned by hash.

Every command a benchmark run times goes through main() once, on a noisy
world with speech documents, and the sha256 of each file it writes is
compared with digests recorded from an earlier version of the code. A
second, table-only world of all-speech documents with 9 to 14 segments
each pins `rank` on documents long enough that a pairwise (numpy-style)
sum over segments would round differently from the sequential one. A
third test pins the `dump-evidence` file of each generator (table, MT,
searcher) on the noisy world, MT's background cells included, and a
fourth every file `synth` writes, for those two worlds and for an
all-speech one whose decoy pool barely exceeds its depth. A fifth runs
each fit command on the noisy world with one BLAS thread and with two and
compares what they write byte for byte. A
refactor that must not change outputs fails here, in seconds, before the
benchmark's own output checks run. A change that alters outputs on
purpose re-records the digests and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clirset
from clirset.cli import main
from clirset.synth import DATASET_FILES

SYNTH = [
    "synth", "--seed", "0", "--docs", "30", "--queries", "5",
    "--foreign-vocab", "60", "--english-vocab", "60", "--bitext-pairs", "60",
    "--noise", "0.3", "--speech-fraction", "0.5", "--confusion-depth", "3",
]

EXPECTED_SHA256 = {
    "mt.json": (
        "8ca149985c877bd27083d81a678044f9080fb4598a144a8ee1241e06c256e74b"
    ),
    "searcher.npz": (
        "ee220340fb3814febc79c7b78a49e6ea094ba51baf83d87d9f15833a2c39a551"
    ),
    "weights.tsv": (
        "ca421f28c3c6d1b79d6422fc334c67385078a8c488575705b15bac7f14b6dbc9"
    ),
    "run/ranked.run": (
        "79d79a0ab3d38ffc7e55ead555b59b3b9257c0d4ae1b71e0a8e400573ef55be3"
    ),
    "run/cutoffs.tsv": (
        "e5f2ff4ab98d2dd7584d9ccdc19f85fc80bc6e24fcfee0ab24f04b72a237f4c5"
    ),
    "run/sets.tsv": (
        "43a08c4a2281725f26b50c931a1e502ed970b7792e607bf14fcab5337e00fc34"
    ),
}

LONG_SPEECH_SYNTH = [
    "synth", "--seed", "0", "--docs", "30", "--queries", "5",
    "--foreign-vocab", "60", "--english-vocab", "60", "--bitext-pairs", "60",
    "--noise", "0.3", "--speech-fraction", "1.0", "--confusion-depth", "5",
    "--sentences-per-doc", "9", "14",
]

LONG_SPEECH_SHA256 = {
    "ranked.run": (
        "b121507d607f817cffd2f7656bd70ecadf22372e8b766c88a6f0cf68ce38f79d"
    ),
    "cutoffs.tsv": (
        "06381c02cf013bc0f6779c362878938273e999769c3d4e3ed83514b4cf16da64"
    ),
    "sets.tsv": (
        "712d612bcfea297e52c7c285f838ccd84e244fd39b8b87ecd25e45912aef4549"
    ),
}


def digests(root, names):
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in names
    }


def fit_models(data, out):
    """`synth` the noisy world into `data`, then fit its MT ensemble and
    train its searcher into `out`."""
    out.mkdir()
    bitext = ["--bitext", str(data / "bitext.tsv")]
    steps = [
        SYNTH + ["--out", str(data)],
        ["fit-ensemble", *bitext, "--mt-hyps", str(data / "mt_hyps.tsv"),
         "--out", str(out / "mt.json")],
        ["train-searcher", *bitext, "--dim", "4", "--epochs", "2",
         "--out", str(out / "searcher.npz")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


def generators(data, out):
    return [
        "--table", str(data / "table.tsv"),
        "--mt-hyps", str(data / "mt_hyps.tsv"),
        "--mt-model", str(out / "mt.json"),
        "--searcher-model", str(out / "searcher.npz"),
    ]


def fit_mixture_argv(data, out):
    return ["fit-mixture", "--bitext", str(data / "bitext.tsv"), *generators(data, out)]


def test_pipeline_outputs_match_recorded_digests(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    fit_models(data, out)
    steps = [
        fit_mixture_argv(data, out) + ["--out", str(out / "weights.tsv")],
        ["retrieve", "--corpus", str(data / "corpus.jsonl"),
         "--queries", str(data / "queries.tsv"), *generators(data, out),
         "--weights", str(out / "weights.tsv"), "--out", str(out / "run")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    assert digests(out, EXPECTED_SHA256) == EXPECTED_SHA256


def test_fit_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Each fit sums inside BLAS products: EM over the distinct rows of q,
    the searcher's step over its words, the ensemble's gradient over its
    rows. `fit-ensemble`, `train-searcher` at depth 0 and 1, and
    `fit-mixture` write the same bytes with one OpenBLAS thread and with
    two."""
    data, out = tmp_path / "data", tmp_path / "out"
    fit_models(data, out)
    path = os.pathsep.join(
        filter(None, [str(Path(clirset.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )
    bitext = ["--bitext", str(data / "bitext.tsv")]
    searcher = ["train-searcher", *bitext, "--dim", "16", "--epochs", "2"]
    commands = {
        "mt.json": ["fit-ensemble", *bitext, "--mt-hyps", str(data / "mt_hyps.tsv")],
        "searcher-depth0.npz": searcher,
        "searcher-depth1.npz": [*searcher, "--depth", "1"],
        "weights.tsv": fit_mixture_argv(data, out),
    }
    for name, command in commands.items():
        written = []
        for threads in ("1", "2"):
            target = out / f"{threads}-threads-{name}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            argv = [sys.executable, "-m", "clirset.cli", *command, "--out", str(target)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            written.append(target.read_bytes())
        assert written[0] == written[1], name


def test_table_only_long_speech_documents_match_recorded_digests(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(LONG_SPEECH_SYNTH + ["--out", str(data)]) == 0
    argv = [
        "retrieve", "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "queries.tsv"), "--table", str(data / "table.tsv"),
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert digests(out, LONG_SPEECH_SHA256) == LONG_SPEECH_SHA256


DUMP_EVIDENCE_SHA256 = {
    "table.tsv": (
        "829f1745310ef6cdaa5bcd9b09b7a2013da76c50d4e858155d453e6479affecb"
    ),
    "mt.tsv": (
        "5dcc925792245b9e853e61149092b026896838d6f496c2d012f350d2c2a3200b"
    ),
    "searcher.tsv": (
        "219eb15ff506bbf84f38461d427c964e03cf4b55241862d3e4ba6a472a2c5e2e"
    ),
}


def test_dump_evidence_matches_recorded_digests(tmp_path):
    """`dump-evidence` of each generator on the noisy world, byte for byte."""
    data, out = tmp_path / "data", tmp_path / "out"
    fit_models(data, out)
    inputs = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.tsv")]
    steps = [
        ["dump-evidence", *inputs, "--table", str(data / "table.tsv"),
         "--out", str(out / "table.tsv")],
        ["dump-evidence", *inputs, "--mt-hyps", str(data / "mt_hyps.tsv"),
         "--mt-model", str(out / "mt.json"), "--out", str(out / "mt.tsv")],
        ["dump-evidence", *inputs, "--searcher-model", str(out / "searcher.npz"),
         "--out", str(out / "searcher.tsv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    assert digests(out, DUMP_EVIDENCE_SHA256) == DUMP_EVIDENCE_SHA256


SYNTH_SHA256 = {
    "corpus.jsonl": (
        "e63534dbd109251e46bce4edda63e8a851fe12bf514352285ecbc2bbd2a1c6e3"
    ),
    "bitext.tsv": (
        "8532a568d7b7373959af6c037f488e323019d24ba53c45eaac2b275a707807d1"
    ),
    "table.tsv": (
        "5c9f2849e949d499ef0d2e2adf13cbcd1af92146ba1ef76d9e7b94daa1d30391"
    ),
    "mt_hyps.tsv": (
        "74ab35cccdb3c8db3cf2166271c8ecdaac48b2bf83b2ec6277650fec307a50b3"
    ),
    "queries.tsv": (
        "aa55e03dc6e775affb123c4d5c25dcb0fdd87e83a1ba7992eb846861b7300014"
    ),
    "judgments.tsv": (
        "e9c8df4c753cd180b8f0e0ad2257e8eb0a1dd232d8eec6d871c15d5d3ef24857"
    ),
}

LONG_SPEECH_SYNTH_SHA256 = {
    "corpus.jsonl": (
        "c4968a99635365896800533975bfad4eccf1ea737f84fe6b5f902f286d6af00f"
    ),
    "bitext.tsv": (
        "8532a568d7b7373959af6c037f488e323019d24ba53c45eaac2b275a707807d1"
    ),
    "table.tsv": (
        "5c9f2849e949d499ef0d2e2adf13cbcd1af92146ba1ef76d9e7b94daa1d30391"
    ),
    "mt_hyps.tsv": (
        "3ee81ee92c3c9daa42a658a19b8d8bcca1211ec2b3303c7a6cbbe2a1482d256c"
    ),
    "queries.tsv": (
        "aa55e03dc6e775affb123c4d5c25dcb0fdd87e83a1ba7992eb846861b7300014"
    ),
    "judgments.tsv": (
        "b64e9d91eb3d444195860890bff69447040b7556b73b678589e199f473f0bdd7"
    ),
}


# All speech at depth 5 over a decoy pool of 10 foreign words, the fewest
# `synth` accepts: most slots reject a draw and take the one-draw-at-a-time
# walk of `_decoy_picks`.
THIN_POOL_SYNTH = [
    "synth", "--seed", "0", "--docs", "30", "--queries", "4",
    "--foreign-vocab", "18", "--english-vocab", "18", "--bitext-pairs", "60",
    "--noise", "0.3", "--speech-fraction", "1.0", "--confusion-depth", "5",
]

THIN_POOL_SYNTH_SHA256 = {
    "corpus.jsonl": (
        "ee4c8e7238ebf69e1f35e6db4724aedf7ed010e541729f87bde7365b7013a603"
    ),
    "bitext.tsv": (
        "3a6ff39bae1ec012732033169d089522f59416b1b9476d10b1704b56adae8372"
    ),
    "table.tsv": (
        "86a8439643620d57f691290b6e86042afbf7a8d6b54b18cd6fc365591cdcece4"
    ),
    "mt_hyps.tsv": (
        "3cc58af4fa5ab3f1d109f5fca643314b9ed96c93900dfcaaae3d62c07d0de496"
    ),
    "queries.tsv": (
        "f9f580f70ec3d19c350a8fc4830efccd95cfd804fa853e1c94f24348411f593e"
    ),
    "judgments.tsv": (
        "43a08c4a2281725f26b50c931a1e502ed970b7792e607bf14fcab5337e00fc34"
    ),
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (SYNTH, SYNTH_SHA256),
        (LONG_SPEECH_SYNTH, LONG_SPEECH_SYNTH_SHA256),
        (THIN_POOL_SYNTH, THIN_POOL_SYNTH_SHA256),
    ],
    ids=["noisy-mixed", "long-speech", "thin-pool"],
)
def test_synth_files_match_recorded_digests(tmp_path, argv, expected):
    """Every file `synth` writes, byte for byte, for the three worlds above."""
    assert set(expected) == set(DATASET_FILES.values())
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert digests(tmp_path, expected) == expected
