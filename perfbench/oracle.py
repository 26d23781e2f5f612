"""Output checks that share no code with naveval.

Each checker returns a list of problems; an empty list means the output is
correct. Expected values come from the generator's ground truth and from the
small reference computations below (set intersection, LCS, DTW by dynamic
programming, Pearson via the statistics module), never from naveval itself.
"""

from __future__ import annotations

import json
import math
import re
import statistics

import numpy as np

TOL = 1e-9
_SEPARATORS = re.compile(r'[\s.,;:!?"]+')


def own_tokens(text: str) -> list[str]:
    return [t for t in _SEPARATORS.split(text.lower()) if t]


def count_directions(tokens: list[str], phrases: dict[str, tuple[tuple[str, ...], ...]]) -> int:
    """Greedy longest-first phrase count, for calibration figures only."""
    options = sorted((p for ps in phrases.values() for p in ps), key=len, reverse=True)
    i = count = 0
    while i < len(tokens):
        hit = next((p for p in options if tuple(tokens[i : i + len(p)]) == p), None)
        i += len(hit) if hit else 1
        count += bool(hit)
    return count


def lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[-1][-1]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _harmonic(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def expected_row(truth: dict) -> dict:
    """What max aggregation must report: the counts of a best-scoring reference.

    "counts" holds every reference's counts whose SPICE-D is within TOL of the
    best, since harmonic means that are equal in exact arithmetic can differ
    in their last bit.
    """
    cand = truth["cand"]
    direction_only = cand["tuples"] is None or any(r["tuples"] is None for r in truth["refs"])
    c_set = set() if direction_only else {tuple(t) for t in cand["tuples"]}
    scored = []
    for ref in truth["refs"]:
        r_set = set() if direction_only else {tuple(t) for t in ref["tuples"]}
        inter = len(c_set & r_set)
        m = lcs(cand["dirs"], ref["dirs"])
        counts = {
            "cand_tuples": len(c_set),
            "ref_tuples": len(r_set),
            "tuple_matches": inter,
            "cand_dirs": len(cand["dirs"]),
            "ref_dirs": len(ref["dirs"]),
            "dir_matches": m,
        }
        pr = _ratio(inter + m, len(c_set) + len(cand["dirs"]))
        re_ = _ratio(inter + m, len(r_set) + len(ref["dirs"]))
        scored.append((_harmonic(pr, re_), counts))
    top = max(s for s, _ in scored)
    best = [c for s, c in scored if s >= top - TOL]
    return {"counts": best, "direction_only": direction_only, "n_references": len(truth["refs"])}


def check_score_report(out: bytes, truth: list[dict]) -> list[str]:
    """Problems in one `naveval score` report, one entry per wrong record."""
    try:
        doc = json.loads(out)
        rows = doc["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc}"] * len(truth)
    problems = []
    if len(rows) != len(truth):
        problems.append(f"{len(rows)} rows for {len(truth)} candidates")
    for row, t in zip(rows, truth):
        bad = _check_row(row, t)
        if bad:
            problems.append(f"{t['id']}: {bad}")
    problems += ["dropped row"] * max(0, len(truth) - len(rows))
    if not problems:
        n = len(rows)
        corpus = doc.get("corpus", {})
        if corpus.get("n_records") != n:
            problems.append("corpus.n_records wrong")
        if corpus.get("n_direction_only") != sum(r["direction_only"] for r in rows):
            problems.append("corpus.n_direction_only wrong")
        for key, field in (("mean_spice", "spice"), ("mean_spice_d", "spice_d")):
            if not _close(corpus.get(key, -1.0), sum(r[field] for r in rows) / n):
                problems.append(f"corpus.{key} wrong")
    return problems


def _check_row(row: dict, truth: dict) -> str:
    try:
        want = expected_row(truth)
        if row["id"] != truth["id"]:
            return f"id {row['id']!r}"
        if row["n_references"] != want["n_references"] or row["direction_only"] != want["direction_only"]:
            return "n_references or direction_only"
        c = row["counts"]
        if c not in want["counts"]:
            return f"counts {c} not among the best references' {want['counts']}"
        pr_s = _ratio(c["tuple_matches"], c["cand_tuples"])
        re_s = _ratio(c["tuple_matches"], c["ref_tuples"])
        pr_sd = _ratio(c["tuple_matches"] + c["dir_matches"], c["cand_tuples"] + c["cand_dirs"])
        re_sd = _ratio(c["tuple_matches"] + c["dir_matches"], c["ref_tuples"] + c["ref_dirs"])
        expect = {
            "pr_s": pr_s,
            "re_s": re_s,
            "pr_sd": pr_sd,
            "re_sd": re_sd,
            "spice": _harmonic(pr_s, re_s),
            "spice_d": _harmonic(pr_sd, re_sd),
        }
        for key, value in expect.items():
            if not (0.0 <= row[key] <= 1.0 and _close(row[key], value)):
                return f"{key} {row[key]} != {value}"
    except (KeyError, TypeError) as exc:
        return f"malformed row: {exc!r}"
    return ""


# ---------------------------------------------------------------------------
# alignment


def cosine_cost(subs, panos) -> np.ndarray:
    s = np.asarray(subs, dtype=np.float64)
    p = np.asarray(panos, dtype=np.float64)
    s = s / np.sqrt((s * s).sum(axis=1))[:, None]
    p = p / np.sqrt((p * p).sum(axis=1))[:, None]
    return np.clip(1.0 - s @ p.T, 0.0, 2.0)


def dtw_optimum(cost: np.ndarray) -> float:
    """Cheapest monotone path cost, by a plain dynamic program."""
    rows = cost.tolist()
    m, n = len(rows), len(rows[0])
    inf = math.inf
    prev = [inf] * n
    for i in range(m):
        cur = [inf] * n
        for j in range(n):
            best = 0.0 if i == j == 0 else min(
                prev[j - 1] if j else inf, prev[j], cur[j - 1] if j else inf
            )
            cur[j] = rows[i][j] + best
        prev = cur
    return prev[-1]


def path_cells(a) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.asarray(a)))]


def check_path(cells: list[tuple[int, int]], shape: tuple[int, int], cost: np.ndarray) -> str:
    """'' when the cells form a staircase from corner to corner of minimum cost."""
    m, n = shape
    cells = sorted(cells)
    if not cells or cells[0] != (0, 0) or cells[-1] != (m - 1, n - 1):
        return "path does not join the corners"
    for (i, j), (k, l) in zip(cells, cells[1:]):
        if (k - i, l - j) not in ((0, 1), (1, 0), (1, 1)):
            return f"path breaks between ({i}, {j}) and ({k}, {l})"
    got = sum(cost[i, j] for i, j in cells)
    want = dtw_optimum(cost)
    if abs(got - want) > TOL * max(1.0, abs(want)):
        return f"path cost {got} above the optimum {want}"
    return ""


def check_align_output(out: bytes, features: dict) -> list[str]:
    """Problems in one `naveval align` report (default ce and weights)."""
    try:
        doc = json.loads(out)
        a = np.asarray(doc["A"])
        a_prime = np.asarray(doc["A_prime"])
        l_att, l_nce, total = doc["l_att"], doc["l_nce"], doc["total_loss"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"align report unreadable: {exc}"]
    cost = cosine_cost(features["sub_instructions"], features["panoramas"])
    if a.shape != cost.shape or not np.isin(a, (0, 1)).all():
        return [f"A has shape {a.shape}, want {cost.shape} of 0/1"]
    problems = []
    bad = check_path(path_cells(a), cost.shape, cost)
    if bad:
        problems.append(bad)
    if a_prime.tolist() != a[np.asarray(features["word_to_sub"])].tolist():
        problems.append("A_prime rows do not copy the owning sub-instruction's row")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (l_att, l_nce, total)):
        problems.append("non-finite loss")
    elif not _close(total, doc.get("ce", 0.0) + l_att + l_nce):
        problems.append("total_loss is not ce + l_att + l_nce")
    return problems


# ---------------------------------------------------------------------------
# short commands


def expected_kb_lines(facts: dict, entity: str, k: int) -> str:
    mine = facts.get(entity.lower(), [])
    ranked = sorted(mine, key=lambda f: (-float(f[3]), f[1], f[2]))[:k]
    return "".join(f"{h}\t{r}\t{t}\t{float(w)!r}\n" for h, r, t, w in ranked)


def check_correlate(out: bytes, rows: list, names: list[str], min_dirs: int) -> list[str]:
    keep = [cells for _, cells, n_dirs in rows if n_dirs >= min_dirs and None not in cells]
    human = [cells[-1] for cells in keep]
    want = [(name, statistics.correlation([c[i] for c in keep], human)) for i, name in enumerate(names)]
    want.sort(key=lambda e: -e[1])
    try:
        got = [(e["metric"], e["pearson"], e["n"]) for e in json.loads(out)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"correlate output unreadable: {exc}"]
    if [g[0] for g in got] != [w[0] for w in want]:
        return [f"metric order {[g[0] for g in got]} != {[w[0] for w in want]}"]
    for (name, r, n), (_, r_want) in zip(got, want):
        if n != len(keep) or not _close(r, r_want):
            return [f"{name}: pearson {r} n {n}, want {r_want} n {len(keep)}"]
    return []
