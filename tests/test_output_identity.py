"""Output-identity guard: the whole pipeline on tiny worlds, pinned by hash.

Every command a benchmark run times goes through main() once, on a noisy
world with speech documents, and the sha256 of each file it writes is
compared with digests recorded from an earlier version of the code. A
second, table-only world of all-speech documents with 9 to 14 segments
each pins `rank` on documents long enough that a pairwise (numpy-style)
sum over segments would round differently from the sequential one. A
third test pins the `dump-evidence` file of each generator (table, MT,
searcher) on the noisy world, MT's background cells included. A
refactor that must not change outputs fails here, in seconds, before the
benchmark's own output checks run. A change that alters outputs on
purpose re-records the digests and says why.
"""

import hashlib

from clirset.cli import main

SYNTH = [
    "synth", "--seed", "0", "--docs", "30", "--queries", "5",
    "--foreign-vocab", "60", "--english-vocab", "60", "--bitext-pairs", "60",
    "--noise", "0.3", "--speech-fraction", "0.5", "--confusion-depth", "3",
]

EXPECTED_SHA256 = {
    "mt.json": (
        "2696e27408785383a355f0a4a313201e125f2f24e822ed63cb61cd9c3a73c792"
    ),
    "searcher.npz": (
        "08a61c50a35faa602aa10120747cba28b2069a84d5788eeec57dc72c7c4be6d0"
    ),
    "weights.tsv": (
        "3005b0976bdfc1eb4d746d8b61b21c43fafc83c096e9c9cdd4bee1a8888b5262"
    ),
    "run/ranked.run": (
        "3ef189e8681f76798e2453cbe6b800df4f54bf0a0af559ee99e8c7f9aa80757e"
    ),
    "run/cutoffs.tsv": (
        "4c969d753c46309799cbfbe07c81376ffa7c10ada7b8000d3af10f4d4b5958bb"
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


def test_pipeline_outputs_match_recorded_digests(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    out.mkdir()
    bitext = ["--bitext", str(data / "bitext.tsv")]
    generators = [
        "--table", str(data / "table.tsv"),
        "--mt-hyps", str(data / "mt_hyps.tsv"),
        "--mt-model", str(out / "mt.json"),
        "--searcher-model", str(out / "searcher.npz"),
    ]
    steps = [
        SYNTH + ["--out", str(data)],
        ["fit-ensemble", *bitext, "--mt-hyps", str(data / "mt_hyps.tsv"),
         "--out", str(out / "mt.json")],
        ["train-searcher", *bitext, "--dim", "4", "--epochs", "2",
         "--out", str(out / "searcher.npz")],
        ["fit-mixture", *bitext, *generators, "--out", str(out / "weights.tsv")],
        ["retrieve", "--corpus", str(data / "corpus.jsonl"),
         "--queries", str(data / "queries.tsv"), *generators,
         "--weights", str(out / "weights.tsv"), "--out", str(out / "run")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    assert digests(out, EXPECTED_SHA256) == EXPECTED_SHA256


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
        "c3da0f0900300831dcb2fa85cc8cd00596a49159cff95e80f9f39433867cdd63"
    ),
    "searcher.tsv": (
        "2e04c962040f7a3443ccb89475cb18b28de5b2eb4e8fa5510afdabb86f9a0caa"
    ),
}


def test_dump_evidence_matches_recorded_digests(tmp_path):
    """`dump-evidence` of each generator on the noisy world, byte for byte."""
    data, out = tmp_path / "data", tmp_path / "out"
    out.mkdir()
    bitext = ["--bitext", str(data / "bitext.tsv")]
    inputs = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.tsv")]
    steps = [
        SYNTH + ["--out", str(data)],
        ["fit-ensemble", *bitext, "--mt-hyps", str(data / "mt_hyps.tsv"),
         "--out", str(out / "mt.json")],
        ["train-searcher", *bitext, "--dim", "4", "--epochs", "2",
         "--out", str(out / "searcher.npz")],
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
