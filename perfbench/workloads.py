"""The benchmark's workloads: how each world is synthesised and what is timed.

Every command here is a `clirset` CLI invocation; the program only ever
sees the generated files, never the workload seed. The CLI fit commands
run at their default seed (0). No command passes `--jobs`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

CLI = (sys.executable, "-m", "clirset.cli")

# Searcher training settings, shared with the traced run.
SEARCHER_DIM, SEARCHER_EPOCHS, SEARCHER_LR = 16, 10, 2.0
SEARCHER_ARGS = ("--dim", str(SEARCHER_DIM), "--epochs", str(SEARCHER_EPOCHS),
                 "--lr", str(SEARCHER_LR))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    queries: int
    synth: tuple[str, ...]  # synth flags besides --out/--seed/--docs/--queries
    generators: tuple[str, ...]  # retrieve's generators: table, mt, searcher
    beta: float
    fits: bool = False  # time fit-ensemble, train-searcher, fit-mixture first


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mix3-2k",
            why="fit-ensemble, train-searcher, fit-mixture, then retrieve with all three generators: MT build and 3-way combine dominate; EM reads evidence by lookup",
            docs=2000,
            queries=50,
            synth=("--noise", "0.3", "--speech-fraction", "0.5", "--confusion-depth", "3"),
            generators=("table", "mt", "searcher"),
            beta=40.0,
            fits=True,
        ),
        Workload(
            name="table-speech-2k",
            why="table-only retrieve over all-speech depth-5 confusion networks; rank, output writing and empty sets, no MT or searcher",
            docs=2000,
            queries=200,
            synth=(
                "--noise", "0.3", "--speech-fraction", "1.0", "--confusion-depth", "5",
                "--foreign-vocab", "1000", "--english-vocab", "1000",
            ),
            generators=("table",),
            beta=100.0,
        ),
    )
}


SYNTH_FILES = {
    "corpus": "corpus.jsonl",
    "queries": "queries.tsv",
    "judgments": "judgments.tsv",
    "table": "table.tsv",
    "mt_hyps": "mt_hyps.tsv",
    "bitext": "bitext.tsv",
}
MODEL_FILES = {"mt_model": "mt.json", "searcher": "searcher.npz", "weights": "weights.tsv"}


class World:
    """File layout of one synthesised world plus the models fitted on it."""

    def __init__(self, root: Path):
        self.root = Path(root)
        for name, filename in {**SYNTH_FILES, **MODEL_FILES}.items():
            setattr(self, name, self.root / filename)


def synth_command(w: Workload, seed: int, world: World) -> list[str]:
    return [
        *CLI, "synth", "--out", str(world.root), "--seed", str(seed),
        "--docs", str(w.docs), "--queries", str(w.queries), *w.synth,
    ]


def fit_commands(world: World) -> list[tuple[str, list[str]]]:
    """fit-ensemble, train-searcher, then fit-mixture over all three generators."""
    return [
        ("fit_ensemble", [
            *CLI, "fit-ensemble", "--bitext", str(world.bitext),
            "--mt-hyps", str(world.mt_hyps), "--out", str(world.mt_model),
        ]),
        ("train_searcher", [
            *CLI, "train-searcher", "--bitext", str(world.bitext), *SEARCHER_ARGS,
            "--out", str(world.searcher),
        ]),
        ("fit_mixture", [
            *CLI, "fit-mixture", "--table", str(world.table),
            "--mt-hyps", str(world.mt_hyps), "--mt-model", str(world.mt_model),
            "--searcher-model", str(world.searcher), "--bitext", str(world.bitext),
            "--out", str(world.weights),
        ]),
    ]


def retrieve_command(w: Workload, world: World, out: Path) -> list[str]:
    cmd = [*CLI, "retrieve", "--corpus", str(world.corpus), "--queries", str(world.queries)]
    if "table" in w.generators:
        cmd += ["--table", str(world.table)]
    if "mt" in w.generators:
        cmd += ["--mt-hyps", str(world.mt_hyps), "--mt-model", str(world.mt_model)]
    if "searcher" in w.generators:
        cmd += ["--searcher-model", str(world.searcher)]
    if len(w.generators) > 1:
        cmd += ["--weights", str(world.weights)]
    return cmd + ["--beta", repr(w.beta), "--out", str(out)]


def timed_commands(w: Workload, world: World, out: Path) -> list[tuple[str, list[str]]]:
    fits = fit_commands(world) if w.fits else []
    return fits + [("retrieve", retrieve_command(w, world, out))]


def evaluate_command(world: World, run_dir: Path, beta: float) -> list[str]:
    return [
        *CLI, "evaluate", "--corpus", str(world.corpus), "--judgments", str(world.judgments),
        "--sets", str(run_dir / "sets.tsv"), "--cutoffs", str(run_dir / "cutoffs.tsv"),
        "--beta", repr(beta),
    ]
