"""The full verification suite: nine exhaustive checks at desk scale.

Each check returns a :class:`CriterionResult`; ``verify_all`` runs them in
order.  The same functions back the command line ``verify-all`` subcommand
and the acceptance test module, so there is exactly one implementation of
every pass/fail decision.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exterior import phi_sums
from .nonvanishing import build_certificate, e1_page
from .rootsys import (
    RootSystem,
    SimpleType,
    Weight,
    all_simple_types,
    column_stats,
    root_system,
)
from .vanishing import check_theorem1, corollary_bound, prop2_threshold
from .weyl import bwb, pairings

#: Types whose every degree p is checked against the full weight multiset of
#: Lambda^p n- in criteria 4 and 5 (largest: F4, |Phi+| = 24).
BRUTE_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2",
)

#: Types for the pairing-bound check.
BOUND_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")

#: Types for the dominance-regularization oracle (|W| <= 48).
ORACLE_TYPES = ("A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2")

#: The oracle checks every weight of the box [-ORACLE_BOX, ORACLE_BOX]^rank.
ORACLE_BOX = 6

#: Types for the rho top-degree check.
RHO_TYPES = ("A3", "B2", "B3", "C3", "G2", "F4")

GOLDEN_TABLES = (
    "G2", "F4", "E6", "E7", "E8",
    "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
)


def rank_2_to_8_types() -> list[SimpleType]:
    """The 31 simple types of rank 2..8 that criteria 3 and 7 check."""
    return [t for t in all_simple_types(8) if t.rank >= 2]


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float
    limit_seconds: float | None = None


def _result(number, name, problems, detail, t0, limit=None) -> CriterionResult:
    """Pass with ``detail`` iff ``problems`` is empty, else show the first
    three problems; a run past ``limit`` seconds fails either way."""
    elapsed = time.perf_counter() - t0
    ok = not problems
    if problems:
        detail = "; ".join(problems[:3])
    if limit is not None and elapsed > limit:
        ok = False
        detail += f"; exceeded time limit {limit}s"
    return CriterionResult(number, name, ok, detail, elapsed, limit)


def default_golden_dir() -> Path:
    """tests/golden relative to the working directory or the repo root."""
    here = Path("tests/golden")
    if here.is_dir():
        return here
    repo = Path(__file__).resolve().parents[2] / "tests" / "golden"
    return repo


def load_golden_table(path: Path) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The rows of ``path``; a ValueError names a missing file or its first bad line."""
    if not path.is_file():
        raise ValueError(f"{path.name} not found")
    rows = set()
    for i, line in enumerate(path.read_text().splitlines(), 1):
        try:
            if line.strip():
                left, right = line.split("->")
                rows.add((tuple(map(int, left.split())), tuple(map(int, right.split()))))
        except ValueError:
            raise ValueError(f"{path.name} line {i} malformed") from None
    return rows


def check_appendix_tables(golden_dir: Path | None = None) -> CriterionResult:
    """Criterion 1: regenerated tables equal the golden tables as sets."""
    t0 = time.perf_counter()
    gdir = Path(golden_dir) if golden_dir else default_golden_dir()
    if not gdir.is_dir():
        return _result(1, "appendix-tables", [f"golden dir {gdir} not found"], "", t0, 1.0)
    bad = []
    for name in GOLDEN_TABLES:
        rs = root_system(name)
        generated = {(r.root_coords, r.weight.coords) for r in rs.positive_roots}
        try:
            golden = load_golden_table(gdir / f"{name}.txt")
        except ValueError as exc:
            return _result(1, "appendix-tables", [str(exc)], "", t0, 1.0)
        if generated != golden:
            bad.append(name)
    problems = [f"mismatch in {bad}"] if bad else []
    detail = f"{len(GOLDEN_TABLES)} tables compared bit-exact"
    return _result(1, "appendix-tables", problems, detail, t0, 1.0)


def _spot_coxeter(t: SimpleType) -> int:
    fam, n = t.family, t.rank
    if fam == "A":
        return n + 1
    if fam in ("B", "C"):
        return 2 * n
    if fam == "D":
        return 2 * n - 2
    if fam == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if fam == "F":
        return 12
    return 6


def check_coxeter_numbers() -> CriterionResult:
    """Criterion 2: h and h_alpha laws for every type of rank <= 8."""
    t0 = time.perf_counter()
    problems = []
    for t in all_simple_types(8):
        rs = root_system(t)
        h, per = rs.coxeter_number, rs.coxeter_per_root
        if h != _spot_coxeter(t):
            problems.append(f"{t}: h={h}")
        shortest = min(rs.half_norms)
        if max(per) != h:
            problems.append(f"{t}: max h_alpha != h")
        for i in range(rs.rank):
            if (per[i] == h) != (rs.half_norms[i] == shortest):
                problems.append(f"{t}: h_alpha attainment at {i}")
        for i in range(rs.rank):
            for j in range(rs.rank):
                if rs.half_norms[i] == rs.half_norms[j] and per[i] != per[j]:
                    problems.append(f"{t}: equal lengths, unequal h_alpha")
                if rs.half_norms[i] <= rs.half_norms[j] and per[i] < per[j]:
                    problems.append(f"{t}: shorter root with smaller h_alpha")
        for i in range(rs.rank):
            # h_alpha = (2 + sum over positive gamma of |(gamma, alpha^v)|)/2
            col = sum(abs(r.weight.coords[i]) for r in rs.positive_roots)
            if (2 + col) % 2 != 0 or per[i] != (2 + col) // 2:
                problems.append(f"{t}: half-sum identity at column {i}")
    n_types = len(all_simple_types(8))
    detail = f"{n_types} types satisfy the h and h_alpha laws"
    return _result(2, "coxeter-numbers", problems, detail, t0, 1.0)


def _expected_column_stats(t: SimpleType) -> list[tuple[int, ...]]:
    """Per-column expected (0,1,2,3,-1,-2,-3) counts for one type."""
    fam, n = t.family, t.rank
    if fam == "A":
        row = ((n * n - 3 * n + 2) // 2, n - 1, 1, 0, n - 1, 0, 0)
        return [row] * n
    if fam == "B":
        long_row = (n * n - 4 * n + 5, 2 * n - 3, 1, 0, 2 * n - 3, 0, 0)
        short_row = (n * n - 2 * n + 1, 0, n, 0, 0, n - 1, 0)
        return [long_row] * (n - 1) + [short_row]
    if fam == "C":
        short_row = (n * n - 4 * n + 5, 2 * n - 4, 2, 0, 2 * n - 4, 1, 0)
        long_row = (n * n - 2 * n + 1, n - 1, 1, 0, n - 1, 0, 0)
        return [short_row] * (n - 1) + [long_row]
    if fam == "D":
        row = (n * n - 5 * n + 7, 2 * n - 4, 1, 0, 2 * n - 4, 0, 0)
        return [row] * n
    if fam == "E":
        counts = {6: (15, 10), 7: (30, 16), 8: (63, 28)}[n]
        row = (counts[0], counts[1], 1, 0, counts[1], 0, 0)
        return [row] * n
    if fam == "F":
        return [(9, 7, 1, 0, 7, 0, 0)] * 2 + [(9, 4, 4, 0, 4, 3, 0)] * 2
    return [(1, 2, 1, 0, 2, 0, 0), (1, 1, 1, 1, 1, 0, 1)]  # G


def check_column_statistics() -> CriterionResult:
    """Criterion 3: column statistics match the family formulas verbatim."""
    t0 = time.perf_counter()
    problems = []
    types = rank_2_to_8_types()
    for t in types:
        rs = root_system(t)
        expected = _expected_column_stats(t)
        for i, stats in enumerate(column_stats(rs)):
            if stats != expected[i]:
                problems.append(f"{t} column {i}: {stats} != {expected[i]}")
    detail = f"{len(types)} types, all columns match"
    return _result(3, "column-statistics", problems, detail, t0, 1.0)


def _every_degree(rs: RootSystem) -> range:
    """The degrees ``0..N`` of a sweep, with the type's layers built first.

    A request for a deeper layer rebuilds the type's cached layer list, so a
    sweep that walks ``p`` upwards would rebuild it at every new depth
    ``min(p, N - p)``.  Building the deepest layer, ``N // 2``, first makes
    the whole sweep one build.
    """
    n = rs.num_positive_roots
    phi_sums(rs, n // 2)
    return range(n + 1)


def check_prop2_sufficiency() -> CriterionResult:
    """Criterion 4: threshold weights pass the full hypothesis check, all p."""
    t0 = time.perf_counter()
    problems = []
    worst = 0.0
    for name in BRUTE_TYPES:
        rs = root_system(name)
        t1 = time.perf_counter()
        for p in _every_degree(rs):
            lam = Weight(prop2_threshold(rs, p))
            rep = check_theorem1(rs, p, lam)
            if not rep.passed:
                problems.append(f"{name} p={p} lam={lam}: {rep.first_violation}")
        worst = max(worst, time.perf_counter() - t1)
    if worst > 60.0:
        problems.append(f"slowest type took {worst:.1f}s (limit 60s)")
    detail = f"{len(BRUTE_TYPES)} types, every p; slowest type {worst:.2f}s"
    return _result(4, "prop2-sufficiency", problems, detail, t0)


def check_corollary5() -> CriterionResult:
    """Criterion 5: coordinates h_alpha - 1 pass for every p simultaneously."""
    t0 = time.perf_counter()
    problems = []
    for name in BRUTE_TYPES:
        rs = root_system(name)
        lam = Weight(corollary_bound(rs))
        for p in _every_degree(rs):
            rep = check_theorem1(rs, p, lam)
            if not rep.passed:
                problems.append(f"{name} p={p}: {rep.first_violation}")
    detail = f"{len(BRUTE_TYPES)} types, every p, lam = h_alpha - 1"
    return _result(5, "corollary5-sufficiency", problems, detail, t0)


def check_pairing_bound() -> CriterionResult:
    """Criterion 6: |(nu + rho, gamma^v)| <= h - 1 over all degree sums."""
    t0 = time.perf_counter()
    problems = []
    for name in BOUND_TYPES:
        rs = root_system(name)
        h = rs.coxeter_number
        attained = False
        for j in _every_degree(rs)[1:]:
            vecs, _ = phi_sums(rs, j)
            pair = pairings(rs, vecs + 1)
            top = int(np.abs(pair).max())
            if top > h - 1:
                problems.append(f"{name} j={j}: bound {top} > {h - 1}")
            if top == h - 1:
                attained = True
        if not attained:
            problems.append(f"{name}: bound h-1 never attained")
    detail = f"{len(BOUND_TYPES)} types, all degrees, bound h-1 holds and is attained"
    return _result(6, "pairing-bound", problems, detail, t0, 120.0)


def check_certificates() -> CriterionResult:
    """Criterion 7: nonvanishing certificates validate for every rank 2..8 type."""
    t0 = time.perf_counter()
    problems = []
    types = rank_2_to_8_types()
    worst = 0.0
    for t in types:
        rs = root_system(t)
        t1 = time.perf_counter()
        cert = build_certificate(rs)
        worst = max(worst, time.perf_counter() - t1)
        if not cert.valid:
            problems.append(f"{t}: {cert.failure}")
        if str(t) == "A2":
            a2 = cert
    if a2.lam != root_system("A2").rho:
        problems.append("A2 witness weight is not rho")
    exc_weights = {r.mu.coords for r in a2.exceptional}
    want = {(1, -2), (-2, 1), (0, 0)}
    if exc_weights != want:
        problems.append(f"A2 exceptional set {exc_weights} != {want}")
    degs = [r.outcome.degree for r in a2.exceptional]
    if degs != [1, 1, 0]:
        problems.append(f"A2 pattern wrong: degrees {degs}")
    if a2.degree_totals != {0: 1, 1: 2}:
        problems.append(f"A2 degree totals {a2.degree_totals} != {{0: 1, 1: 2}}")
    if worst > 1.0:
        problems.append(f"slowest certificate took {worst:.2f}s (limit 1s)")
    detail = (
        f"{len(types)} certificates valid; A2 pattern two degree-1 units "
        f"before one degree-0 unit"
    )
    return _result(7, "nonvanishing-certificates", problems, detail, t0)


def check_rho_top_degree() -> CriterionResult:
    """Criterion 8: at lam = rho and p = d - 1 everything is singular off A2.

    The rows of degree ``d - 1``, the complement of layer 1, must be the
    ``gamma - 2 rho``, each once; then an empty page says that :func:`bwb`
    finds every ``gamma - rho`` singular.
    """
    t0 = time.perf_counter()
    problems = []
    for name in RHO_TYPES:
        rs = root_system(name)
        d = rs.num_positive_roots
        page = e1_page(rs, d - 1, rs.rho)
        if page.buckets:
            problems.append(f"{name}: buckets {page.buckets} not empty")
        # a (d - 1)-subset leaves out one root gamma and sums to gamma - 2 rho
        rows, counts = phi_sums(rs, d - 1)
        want = sorted((g.weight - rs.rho - rs.rho).coords for g in rs.positive_roots)
        if [tuple(r) for r in rows.tolist()] != want or set(counts.tolist()) != {1}:
            problems.append(f"{name}: degree {d - 1} rows are not gamma - 2 rho, once each")
    a2 = root_system("A2")
    page = e1_page(a2, 2, a2.rho)
    if not page.buckets:
        problems.append("A2: expected a nonzero page at rho")
    detail = f"{len(RHO_TYPES)} types all-singular at p=d-1; A2 page {page.buckets}"
    return _result(8, "rho-top-degree", problems, detail, t0, 1.0)


def weyl_group(rs: RootSystem) -> list[tuple[np.ndarray, int]]:
    """Every Weyl group element as ``(matrix, length)``, the int64 matrix
    acting on weight coordinates.

    Breadth first from the identity over the simple reflections
    ``eye - outer(cartan column i, e_i)``, dense, so that the oracle shares
    no code with the sparse ``reflection_table`` that :func:`bwb` reads: an
    element is first reached at its distance from the identity in the Cayley
    graph, which is its length, so each length is read off the level once.
    """
    eye = np.eye(rs.rank, dtype=np.int64)
    gens = [eye - np.outer(col, e) for col, e in zip(zip(*rs.cartan), eye)]
    seen = {eye.tobytes()}
    group, level, length = [], [eye], 0
    while level:
        group += [(m, length) for m in level]
        nxt = []
        for w in level:
            for g in gens:
                gw = g @ w
                key = gw.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(gw)
        level, length = nxt, length + 1
    return group


def check_bwb_oracle() -> CriterionResult:
    """Criterion 9: regularization agrees with exhaustive Weyl-group search.

    Every weight of the box ``[-ORACLE_BOX, ORACLE_BOX]^rank`` goes through
    :func:`bwb`.  The oracle side is batched per type on int64 arrays: for
    each of the ``|W|`` matrices ``m`` of :func:`weyl_group` (one at a time,
    so no ``|W|``-wide tensor is built) the rows ``x = lam + rho`` with
    ``m x`` strictly dominant are counted, and the image and the length
    ``l(w)`` that the search reached ``m`` at are recorded; one
    :func:`pairings` matrix gives the coroot scan and the inversion count.
    Per weight, the oracle and ``bwb`` must agree on singular versus regular,
    with exactly one regular image, degree ``l(w)``, dominant part
    ``w(x) - 1``, and degree equal to the inversion count.
    """
    t0 = time.perf_counter()
    problems = []
    total = 0
    for name in ORACLE_TYPES:
        rs = root_system(name)
        lams = np.array(
            list(itertools.product(range(-ORACLE_BOX, ORACLE_BOX + 1), repeat=rs.rank)),
            dtype=np.int64,
        )
        x = lams + 1
        hits = np.zeros(len(x), dtype=np.int64)
        l_w = np.zeros(len(x), dtype=np.int64)
        image = np.zeros_like(x)
        for m, length in weyl_group(rs):
            img = x @ m.T
            hit = (img > 0).all(axis=1)
            hits += hit
            l_w[hit] = length
            image[hit] = img[hit]
        pair = pairings(rs, x)
        scan_singular = (pair == 0).any(axis=1).tolist()
        inversions = (pair < 0).sum(axis=1).tolist()
        hits, l_w, image = hits.tolist(), l_w.tolist(), image.tolist()
        for row, coords in enumerate(lams.tolist()):
            total += 1
            lam = Weight(tuple(coords))
            got = bwb(rs, lam)
            if not hits[row]:
                if not got.is_singular:
                    problems.append(f"{name} {lam}: oracle singular, bwb concentrated")
            elif hits[row] != 1:
                problems.append(f"{name} {lam}: {hits[row]} regular images")
            elif got.is_singular:
                problems.append(f"{name} {lam}: oracle regular, bwb singular")
            else:
                if got.degree != l_w[row]:
                    problems.append(f"{name} {lam}: degree {got.degree} != l(w) {l_w[row]}")
                if got.dominant != Weight(tuple(c - 1 for c in image[row])):
                    problems.append(f"{name} {lam}: dominant part mismatch")
                if scan_singular[row] or got.degree != inversions[row]:
                    problems.append(f"{name} {lam}: inversion count mismatch")
            if problems:
                break
        if problems:
            break
    detail = f"{len(ORACLE_TYPES)} types, {total} weights agree with |W|-search"
    return _result(9, "bwb-oracle", problems, detail, t0, 60.0)


def verify_all(golden_dir: Path | None = None) -> list[CriterionResult]:
    """Run the nine checks in order; independent of cache state."""
    return [
        check_appendix_tables(golden_dir),
        check_coxeter_numbers(),
        check_column_statistics(),
        check_prop2_sufficiency(),
        check_corollary5(),
        check_pairing_bound(),
        check_certificates(),
        check_rho_top_degree(),
        check_bwb_oracle(),
    ]
