"""Output checks, written independently of the clirset modules.

Everything here reads the files the CLI wrote (`ranked.run`, `cutoffs.tsv`,
`sets.tsv`, `weights.tsv`, `mt.json`, `searcher.npz`) and the synthesised
inputs, and recomputes what it needs with numpy. It never imports clirset,
so a refactor of the program cannot make its own outputs look right.

A retrieve check is one query: its ranked list is complete, sorted and
strictly inside (0, 1); its cutoff k is the smallest maximiser of the
expected query value recomputed here from `ranked.run` (PAPER.md, with
gamma-scaled E_rel); its set in `sets.tsv` is exactly the top-k prefix;
and, where a reference is recorded for the workload and seed, k and the set
are identical to it and the probabilities agree within tolerance. A fit
check is one fit command's output file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The CLI defaults that `retrieve` runs with (no --gamma/--epsilon passed).
GAMMA = 1.3
EPSILON = 1e-6

# Tolerances. Probabilities are compared through per-query aggregates:
# E_rel = sum of p and a projection sum of p * w(doc) with a fixed
# pseudo-random weight per document, which also catches permutations.
PROB_RTOL = 1e-9
EXPECTED_QV_ATOL = 1e-9
# A cutoff that differs from the recomputed argmax still passes when its
# expected value is within this of the maximum: another summation order
# may resolve an exact tie the other way.
TIE_ATOL = 1e-12
MAQWV_ATOL = 1e-12
WEIGHT_ATOL = 1e-6
LOGLIK_RTOL = 1e-8
WEIGHT_SUM_ATOL = 1e-9


class OutputError(Exception):
    """A file the program wrote cannot be read as its format says."""


@dataclass
class Checked:
    """Outcome of checking one command's outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # reference record for this run
    facts: dict = field(default_factory=dict)  # maqwv and the run's size

    def merge(self, other: "Checked") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.observed.update(other.observed)

    def add(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _tsv_lines(path: Path, n_fields: int):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise OutputError(f"{path.name}:{lineno}: expected {n_fields} fields")
        yield lineno, fields


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def corpus_doc_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line)["id"] for line in handle if line.strip()]


def query_ids(path: Path) -> list[str]:
    return [fields[0] for _, fields in _tsv_lines(path, 2)]


def judgments(path: Path) -> dict[str, set[str]]:
    gold: dict[str, set[str]] = {}
    for _, (qid, doc) in _tsv_lines(path, 2):
        gold.setdefault(qid, set()).add(doc)
    return gold


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Retrieve outputs
# ---------------------------------------------------------------------------


def read_ranked(path: Path) -> dict[str, tuple[list[str], list[int], np.ndarray]]:
    """ranked.run -> query -> (doc ids, ranks, probabilities) in file order."""
    rows: dict[str, tuple[list[str], list[int], list[float]]] = {}
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 5:
                raise OutputError(f"{path.name}:{lineno}: expected 5 fields")
            qid, doc, rank, prob, _ = fields
            docs, ranks, probs = rows.setdefault(qid, ([], [], []))
            try:
                ranks.append(int(rank))
                probs.append(float(prob))
            except ValueError as exc:
                raise OutputError(f"{path.name}:{lineno}: {exc}") from exc
            docs.append(doc)
    return {q: (d, r, np.array(p, dtype=float)) for q, (d, r, p) in rows.items()}


def read_cutoffs(path: Path) -> dict[str, tuple[int, float]]:
    cutoffs = {}
    for lineno, (qid, k, eqv) in _tsv_lines(path, 3):
        if qid in cutoffs:
            raise OutputError(f"{path.name}:{lineno}: duplicate query {qid}")
        try:
            cutoffs[qid] = (int(k), float(eqv))
        except ValueError as exc:
            raise OutputError(f"{path.name}:{lineno}: {exc}") from exc
    return cutoffs


def read_sets(path: Path) -> dict[str, list[str]]:
    sets: dict[str, list[str]] = {}
    for _, (qid, doc) in _tsv_lines(path, 2):
        sets.setdefault(qid, []).append(doc)
    return sets


def expected_qv(probs: np.ndarray, beta: float, gamma: float = GAMMA,
                epsilon: float = EPSILON) -> np.ndarray:
    """E_QV(k) for k = 0..N over probabilities in rank order (PAPER.md).

    E_miss(k) is the mass below rank k, E_fa(k) the non-relevant mass in
    the top k; E_rel = E_miss(0) is scaled by gamma and kept inside
    (epsilon, N - epsilon).
    """
    n = len(probs)
    e_miss = np.append(np.cumsum(probs[::-1])[::-1], 0.0)
    e_fa = np.append(0.0, np.cumsum(1.0 - probs))
    scaled = min(max(gamma * e_miss[0], epsilon), n - epsilon)
    return 1.0 - (e_miss / scaled + beta * e_fa / (n - scaled))


def _doc_weight(doc: str) -> float:
    return 0.5 + int(hashlib.sha256(doc.encode()).hexdigest()[:8], 16) / 2**32


def set_digest(docs: list[str]) -> str:
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()[:16]


def _check_query(ranked, cutoff, returned, all_docs, weights, beta, ref):
    """Problems with one query's outputs, plus its reference record."""
    if ranked is None:
        return ["missing from ranked.run"], None
    docs, ranks, probs = ranked
    problems = []
    if len(docs) != len(all_docs) or set(docs) != all_docs:
        problems.append("ranked list does not hold every document exactly once")
    if ranks != list(range(1, len(ranks) + 1)):
        problems.append("ranks are not 1..N in order")
    if not np.all((probs > 0.0) & (probs < 1.0)):
        problems.append("a probability is outside (0, 1)")
    if np.any(np.diff(probs) > 0.0):
        problems.append("ranked list is not sorted by descending probability")
    if cutoff is None:
        return problems + ["missing from cutoffs.tsv"], None
    if problems:
        return problems, None
    k, eqv = cutoff
    values = expected_qv(probs, beta)
    best = int(np.argmax(values))
    if not 0 <= k <= len(docs):
        return [f"cutoff k={k} outside 0..{len(docs)}"], None
    if k != best and values[k] < values[best] - TIE_ATOL:
        problems.append(f"cutoff k={k} but expected QV is maximised first at k={best}")
    if not _close(eqv, values[k], atol=EXPECTED_QV_ATOL):
        problems.append(f"expected QV {eqv!r} != recomputed {values[k]!r}")
    if returned != docs[:k]:
        problems.append(f"sets.tsv does not hold exactly the top-{k} prefix")
    record = [k, set_digest(docs[:k]), float(probs.sum()),
              float(probs @ np.array([weights[d] for d in docs])), eqv]
    if ref is not None:
        if ref[0] != k or ref[1] != record[1]:
            problems.append(f"set/cutoff differ from reference (k={k}, reference k={ref[0]})")
        if not _close(record[2], ref[2], rtol=PROB_RTOL):
            problems.append(f"E_rel {record[2]!r} != reference {ref[2]!r}")
        if not _close(record[3], ref[3], rtol=PROB_RTOL):
            problems.append("ranked probabilities differ from reference (projection sum)")
        if not _close(eqv, ref[4], atol=EXPECTED_QV_ATOL):
            problems.append(f"expected QV {eqv!r} != reference {ref[4]!r}")
    return problems, record


def maqwv(sets: dict[str, list[str]], gold: dict[str, set[str]], n_docs: int,
          beta: float) -> float:
    """Mean QV over every judged query; a query with no set returned nothing."""
    qvs = []
    for qid in sorted(gold):
        relevant = gold[qid]
        returned = set(sets.get(qid, ()))
        hits = len(returned & relevant)
        p_miss = (len(relevant) - hits) / len(relevant)
        p_fa = (len(returned) - hits) / (n_docs - len(relevant))
        qvs.append(1.0 - (p_miss + beta * p_fa))
    return sum(qvs) / len(qvs)


def check_retrieve(run_dir: Path, world, beta: float, reference: dict | None,
                   exit_code: int) -> Checked:
    """One check per query; a failed command or unreadable file fails them all."""
    qids = query_ids(world.queries)
    result = Checked()
    if exit_code != 0:
        result.attempted = result.failed = len(qids)
        result.problems.append("retrieve did not run" if exit_code is None
                               else f"retrieve exited with code {exit_code}")
        return result
    try:
        ranked = read_ranked(run_dir / "ranked.run")
        cutoffs = read_cutoffs(run_dir / "cutoffs.tsv")
        sets = read_sets(run_dir / "sets.tsv")
    except OutputError as exc:
        result.attempted = result.failed = len(qids)
        result.problems.append(str(exc))
        return result
    unknown = (set(ranked) | set(cutoffs) | set(sets)) - set(qids)
    if unknown:
        result.attempted = result.failed = len(qids)
        result.problems.append(f"outputs name unknown queries {sorted(unknown)[:5]}")
        return result
    doc_list = corpus_doc_ids(world.corpus)
    all_docs = set(doc_list)
    weights = {doc: _doc_weight(doc) for doc in doc_list}
    refs = (reference or {}).get("queries", {})
    for qid in qids:
        problems, record = _check_query(
            ranked.get(qid), cutoffs.get(qid), sets.get(qid, []), all_docs, weights, beta,
            refs.get(qid),
        )
        result.add(problems, qid)
        if record is not None:
            result.observed.setdefault("queries", {})[qid] = record
    result.facts = {
        "maqwv": maqwv(sets, judgments(world.judgments), len(doc_list), beta),
        "queries": len(qids),
        "docs": len(doc_list),
    }
    return result


def check_maqwv(facts: dict, evaluate_stdout: str, exit_code: int) -> list[str]:
    """Cross-check our mAQWV against `clirset evaluate --cutoffs`."""
    if exit_code != 0:
        return [f"evaluate exited with code {exit_code}"]
    for part in evaluate_stdout.split():
        if part.startswith("mAQWV="):
            theirs = float(part[len("mAQWV="):])
            if not _close(theirs, facts["maqwv"], atol=MAQWV_ATOL):
                return [f"evaluate mAQWV {theirs!r} != recomputed {facts['maqwv']!r}"]
            return []
    return ["evaluate printed no mAQWV"]


# ---------------------------------------------------------------------------
# Fit outputs
# ---------------------------------------------------------------------------


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_mt_model(path: Path) -> list[str]:
    try:
        model = json.loads(path.read_text(encoding="utf-8"))
        weights = [float(w) for w in model["weights"]]
        bias = float(model["bias"])
        systems = list(model["systems"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"mt.json unreadable: {exc}"]
    if len(systems) != len(weights) or not systems:
        return ["mt.json systems and weights disagree"]
    return [] if _finite(weights + [bias]) else ["mt.json holds a non-finite value"]


def check_searcher(path: Path) -> list[str]:
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in ("foreign_emb", "english_emb", "bias")}
    except (OSError, ValueError, KeyError) as exc:
        return [f"searcher.npz unreadable: {exc}"]
    if not all(np.all(np.isfinite(a)) for a in arrays.values()):
        return ["searcher.npz holds a non-finite value"]
    return []


def read_weights(path: Path) -> tuple[dict[str, float], float | None]:
    weights, loglik = {}, None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        try:
            if line.startswith("#loglik="):
                loglik = float(line[len("#loglik="):])
            elif line.strip():
                tag, value = line.split("\t")
                weights[tag] = float(value)
        except ValueError as exc:
            raise OutputError(f"{path.name}:{lineno}: {exc}") from exc
    return weights, loglik


def check_weights(path: Path, reference: dict | None) -> tuple[list[str], dict]:
    try:
        weights, loglik = read_weights(path)
    except OutputError as exc:
        return [str(exc)], {}
    problems = []
    values = list(weights.values())
    if set(weights) != {"table", "mt", "searcher"}:
        problems.append(f"weights name {sorted(weights)}, not table/mt/searcher")
    if not _finite(values) or any(v < 0.0 for v in values):
        problems.append("a mixture weight is negative or not finite")
    elif not _close(sum(values), 1.0, atol=WEIGHT_SUM_ATOL):
        problems.append(f"mixture weights sum to {sum(values)!r}")
    if loglik is None or not math.isfinite(loglik):
        problems.append("#loglik missing or not finite")
    observed = {"weights": weights, "loglik": loglik}
    if reference is not None and not problems:
        for tag, value in reference["weights"].items():
            if not _close(weights.get(tag, math.nan), value, atol=WEIGHT_ATOL):
                problems.append(f"weight {tag}={weights.get(tag)!r} != reference {value!r}")
        if not _close(loglik, reference["loglik"], rtol=LOGLIK_RTOL):
            problems.append(f"loglik {loglik!r} != reference {reference['loglik']!r}")
    return problems, observed


def _exit_problem(code: int | None) -> list[str]:
    return ["did not run" if code is None else f"exited with code {code}"]


def check_fit(world, exit_codes: dict[str, int], reference: dict | None) -> Checked:
    """One check per fit command; a command that failed fails its check."""
    result = Checked()
    for name, check in (("fit_ensemble", lambda: check_mt_model(world.mt_model)),
                        ("train_searcher", lambda: check_searcher(world.searcher))):
        code = exit_codes.get(name)
        result.add(_exit_problem(code) if code != 0 else check(), name)
    code = exit_codes.get("fit_mixture")
    if code != 0:
        result.add(_exit_problem(code), "fit_mixture")
    else:
        problems, observed = check_weights(world.weights, reference)
        result.add(problems, "fit_mixture")
        result.observed = observed
    return result
