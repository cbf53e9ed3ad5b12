import ast
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bnchains
from bnchains import (
    BNParams,
    Tableau,
    count_components,
    enumerate_tableaux,
    hook_count,
    validate_tableau,
)
from bnchains.tableaux import _standard_fillings
from bnchains.verify import sweep_params

from worked_example import PARAMS_662, tableau_662


def syt_count_determinant(k: int, kbar: int) -> int:
    """Independent count of standard fillings via the factorial determinant.

    f = n! * det[ 1 / (lambda_i - i + j)! ] over the kbar rows of the
    rectangle, a different formula family from the hook product.
    """
    n = k * kbar
    rows = kbar

    def entry(i, j):
        m = k - i + j  # lambda_i = k
        if m < 0:
            return Fraction(0)
        return Fraction(1, factorial(m))

    # Bareiss-free exact determinant by Laplace on small matrices
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            sign = -1 if j % 2 else 1
            total += sign * mat[0][j] * det(minor)
        return total

    mat = [[entry(i, j) for j in range(rows)] for i in range(rows)]
    value = factorial(n) * det(mat)
    assert value.denominator == 1
    return int(value)


def syt_brute_force(k: int, kbar: int) -> int:
    """Filter all permutations; only usable for tiny rectangles."""
    n = k * kbar
    count = 0
    for perm in permutations(range(1, n + 1)):
        rows = [perm[m * k : (m + 1) * k] for m in range(kbar)]
        ok = all(a < b for row in rows for a, b in zip(row, row[1:]))
        ok = ok and all(
            rows[m][t] < rows[m + 1][t] for m in range(kbar - 1) for t in range(k)
        )
        count += ok
    return count


def test_derived_parameters():
    p = PARAMS_662
    assert (p.k, p.kbar, p.rho) == (3, 2, 0)
    assert BNParams(6, 6, 2).rho == 0
    assert BNParams(1, 1, 0).rho == 1
    assert BNParams(5, 4, 1).rho == 1
    assert BNParams(5, 3, 1).rho == -1


def test_params_validation():
    with pytest.raises(ValueError):
        BNParams(0, 1, 0)
    with pytest.raises(ValueError):
        BNParams(3, -1, 0)
    with pytest.raises(ValueError):
        BNParams(3, 1, -1)


def test_hook_count_known_values():
    assert hook_count(1, 3) == 1
    assert hook_count(3, 2) == 5
    assert hook_count(2, 2) == 2
    assert hook_count(2, 3) == 5
    with pytest.raises(ValueError):
        hook_count(0, 2)
    with pytest.raises(ValueError):
        hook_count(2, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kbar", [1, 2, 3, 4])
def test_hook_count_against_determinant(k, kbar):
    assert hook_count(k, kbar) == syt_count_determinant(k, kbar)


@pytest.mark.parametrize(
    "k,kbar", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]
)
def test_hook_count_against_brute_force(k, kbar):
    assert hook_count(k, kbar) == syt_brute_force(k, kbar)


def test_hook_count_symmetry():
    for k in range(1, 5):
        for kbar in range(1, 5):
            assert hook_count(k, kbar) == hook_count(kbar, k)


def test_enumeration_counts():
    assert len(list(enumerate_tableaux(BNParams(6, 6, 2)))) == 5
    assert len(list(enumerate_tableaux(BNParams(5, 4, 1)))) == 10
    assert len(list(enumerate_tableaux(BNParams(5, 3, 1)))) == 0
    assert len(list(enumerate_tableaux(BNParams(6, 4, 1)))) == 5


def test_enumeration_count_matches_closed_form():
    for g in range(1, 7):
        for r in range(0, g + 1):
            for d in range(0, 2 * g + 1):
                p = BNParams(g, d, r)
                assert len(list(enumerate_tableaux(p))) == count_components(p)


def test_kbar_zero_yields_single_empty_tableau():
    p = BNParams(1, 1, 0)
    tableaux = list(enumerate_tableaux(p))
    assert len(tableaux) == 1
    assert tableaux[0].rows == ()
    assert tableaux[0].free_indices == (1,)


def test_kbar_negative_yields_empty_stream():
    p = BNParams(2, 5, 1)  # kbar = -2
    assert list(enumerate_tableaux(p)) == []
    assert count_components(p) == 0


def test_enumeration_order_deterministic():
    p = BNParams(5, 4, 1)
    first = list(enumerate_tableaux(p))
    second = list(enumerate_tableaux(p))
    assert first == second
    # free subsets in lexicographic order; row words lexicographic within
    assert first[0].free_indices == (1,)
    assert first[0].rows == ((2, 3), (4, 5))
    assert first[1].rows == ((2, 4), (3, 5))
    assert first[2].free_indices == (2,)


def test_worked_example_tableau_is_enumerated():
    tableaux = list(enumerate_tableaux(PARAMS_662))
    assert tableau_662() in tableaux


def _fillings_by_build_and_sort(k, kbar):
    """Reference: every filling built by placing 1..k*kbar, then sorted by row word."""
    n = k * kbar
    heights = [0] * k
    cols = [[0] * kbar for _ in range(k)]
    out = []

    def place(v):
        if v > n:
            out.append(tuple(tuple(cols[s][m] for s in range(k)) for m in range(kbar)))
            return
        for s in range(k):
            h = heights[s]
            if h >= kbar or (s > 0 and heights[s - 1] <= h):
                continue
            cols[s][h] = v
            heights[s] = h + 1
            place(v + 1)
            heights[s] = h

    place(1)
    out.sort(key=lambda rows: tuple(v for row in rows for v in row))
    return out


RECTANGLES = sorted(
    {(k, kbar) for k in range(1, 17) for kbar in range(1, 17) if k * kbar <= 16}
    | {(1, n) for n in range(1, 10)}
    | {(n, 1) for n in range(1, 10)}
)


@pytest.mark.parametrize("k,kbar", RECTANGLES)
def test_lazy_fillings_match_build_and_sort(k, kbar):
    assert list(_standard_fillings(k, kbar)) == _fillings_by_build_and_sort(k, kbar)


def test_enumeration_matches_reference_order():
    for p in (BNParams(6, 6, 2), BNParams(7, 6, 1), BNParams(8, 6, 1), BNParams(9, 8, 2)):
        shapes = _fillings_by_build_and_sort(p.k, p.kbar)
        expected = []
        for free in combinations(range(1, p.g + 1), p.rho):
            placed = [i for i in range(1, p.g + 1) if i not in free]
            for shape in shapes:
                rows = tuple(tuple(placed[v - 1] for v in row) for row in shape)
                expected.append(Tableau(p, rows))
        assert list(enumerate_tableaux(p)) == expected


def test_enumeration_is_lazy():
    # 6.5e22 tableaux: the first few must come out without building the rest
    tracemalloc.start()
    try:
        stream = enumerate_tableaux(BNParams(60, 50, 3))
        first = [next(stream) for _ in range(3)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert first[0].free_indices == tuple(range(1, 9))
    assert all(validate_tableau(t) for t in first)
    assert len(set(first)) == 3


def test_validate_tableau():
    assert validate_tableau(tableau_662()).ok
    bad_row = Tableau(PARAMS_662, ((2, 1, 4), (3, 5, 6)))
    verdict = validate_tableau(bad_row)
    assert not verdict.ok
    assert "row 1" in verdict.problem
    assert validate_tableau(Tableau(PARAMS_662, ((1, 2, 3), (4, 5, 6)))).ok
    bad_col = Tableau(PARAMS_662, ((3, 4, 5), (1, 2, 6)))
    verdict = validate_tableau(bad_col)
    assert not verdict.ok
    assert "column" in verdict.problem


def test_tableau_structural_rejections():
    with pytest.raises(ValueError):
        Tableau(PARAMS_662, ((1, 2, 4),))  # wrong row count
    with pytest.raises(ValueError):
        Tableau(PARAMS_662, ((1, 2), (3, 5)))  # wrong width
    with pytest.raises(ValueError):
        Tableau(PARAMS_662, ((1, 2, 4), (3, 5, 5)))  # duplicate
    with pytest.raises(ValueError):
        Tableau(PARAMS_662, ((1, 2, 4), (3, 5, 7)))  # out of range


def test_column_fill_examples():
    t = tableau_662()
    assert t.column_fill(2, 1) == 1
    assert all(t.column_fill(0, s) == 0 for s in range(3))
    assert t.column_fill(3, 2) == 0
    assert t.column_fill(6, 2) == 2


def test_enumerated_tableaux_equal_checked_ones():
    # enumerate_tableaux skips the constructor's checks; every tableau it
    # yields must pass them and build an equal value; (2, 3, 1) has no rows
    for p in sweep_params(8) + [BNParams(2, 3, 1)]:
        for t in enumerate_tableaux(p):
            assert Tableau(t.params, t.rows) == t
            assert validate_tableau(t)


def _mentions(node, name, scope=()):
    """``(kind, scope)`` for each mention of ``name`` under ``node``, by enclosing def or class."""
    children = list(ast.iter_child_nodes(node))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        if node.name == name:
            yield "def", scope
        scope = (*scope, node.name)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
        yield "call", scope
        children.remove(node.func)  # the callee is this call; its arguments are walked
    elif isinstance(node, ast.Name) and node.id == name:
        yield "name", scope
    elif isinstance(node, ast.Attribute) and node.attr == name:
        yield "attribute", scope
    elif isinstance(node, ast.alias) and node.name == name:
        yield "import" if node.asname is None else "renamed import", scope
    elif isinstance(node, ast.Constant) and node.value == name:
        yield "string", scope
    for child in children:
        yield from _mentions(child, name, scope)


def test_unchecked_is_called_only_by_the_library_builders():
    # _unchecked skips every check, so only builders whose values are valid
    # by construction may call it; serialize and cli, which read outside
    # input, must go through the constructors
    found = set()
    for path in sorted(Path(bnchains.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for kind, scope in _mentions(tree, "_unchecked"):
            found.add((path.stem, kind, ".".join(scope)))
    assert found == {
        ("tableaux", "def", ""),
        ("tableaux", "call", "enumerate_tableaux"),
        ("elliptic", "import", ""),
        ("elliptic", "call", "BundleClass.special"),
        ("elliptic", "call", "BundleClass.generic"),
        ("elliptic", "call", "eh_series_from_tableau"),
        ("effective", "import", ""),
        ("effective", "call", "eh_to_effective"),
        ("effective", "call", "effective_to_eh"),
    }


def test_column_fill_matches_a_count():
    for p in sweep_params(6) + [BNParams(2, 3, 1)]:
        for t in enumerate_tableaux(p):
            for s, column in enumerate(t.columns):
                for i in range(-1, p.g + 2):
                    assert t.column_fill(i, s) == sum(1 for v in column if v <= i)
            for s in (-1, p.k):
                with pytest.raises(ValueError):
                    t.column_fill(1, s)


def test_positions():
    t = tableau_662()
    assert t.column_of(4) == 2 and t.row_of(4) == 1
    assert t.column_of(3) == 0 and t.row_of(3) == 2
    assert t.free_indices == ()
    assert t.placed_indices == (1, 2, 3, 4, 5, 6)


def params_strategy(max_g=6):
    return (
        st.tuples(
            st.integers(1, max_g), st.integers(0, 2 * max_g), st.integers(0, 3)
        )
        .map(lambda t: BNParams(*t))
        .filter(lambda p: p.rho >= 0 and p.kbar >= 1)
    )


@st.composite
def tableau_strategy(draw):
    params = draw(params_strategy())
    tableaux = list(enumerate_tableaux(params))
    index = draw(st.integers(0, len(tableaux) - 1))
    return tableaux[index]


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_enumerated_tableaux_validate(t):
    assert validate_tableau(t).ok
    assert len(t.free_indices) == t.params.rho


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_column_fill_monotone_and_complete(t):
    p = t.params
    for i in range(p.g + 1):
        for s in range(p.k - 1):
            assert t.column_fill(i, s) >= t.column_fill(i, s + 1)
    for s in range(p.k):
        assert t.column_fill(p.g, s) == p.kbar


@given(tableau_strategy())
@settings(max_examples=60, deadline=None)
def test_placement_legality(t):
    # row of a placed index is its column count at placement time, and the
    # incremental rule beta(i-1, s) < beta(i-1, s-1) holds for s >= 1
    for i in t.placed_indices:
        s = t.column_of(i)
        assert t.row_of(i) == t.column_fill(i, s)
        if s >= 1:
            assert t.column_fill(i - 1, s) < t.column_fill(i - 1, s - 1)


@given(params_strategy())
@settings(max_examples=40, deadline=None)
def test_counts_match_formula(p):
    tableaux = list(enumerate_tableaux(p))
    assert len(tableaux) == comb(p.g, p.rho) * hook_count(p.k, p.kbar)
    assert len(set(tableaux)) == len(tableaux)
