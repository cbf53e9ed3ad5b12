"""Rectangular standard Young tableaux indexing Brill-Noether components.

A component of the Brill-Noether locus of degree ``d`` and dimension ``r`` on a
genus-``g`` chain is indexed by a filling of a ``k x kbar`` rectangle
(``k = r+1`` columns, ``kbar = g-d+r`` rows) with ``k*kbar`` distinct indices
drawn from ``{1..g}``, strictly increasing along rows and down columns.  The
``rho = g - k*kbar`` indices left out are "free": the series is unconstrained
on those components.

Everything downstream (vanishing orders, bundle classes, tropical divisors) is
driven by the column statistics ``beta(i, s)``: the number of placed indices
``<= i`` sitting in column ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import comb, factorial
from typing import Iterator


@dataclass(frozen=True)
class BNParams:
    """Genus / degree / dimension triple with its derived quantities."""

    g: int
    d: int
    r: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"genus must be positive, got {self.g}")
        if self.d < 0:
            raise ValueError(f"degree must be non-negative, got {self.d}")
        if self.r < 0:
            raise ValueError(f"dimension must be non-negative, got {self.r}")

    @property
    def k(self) -> int:
        return self.r + 1

    @property
    def kbar(self) -> int:
        # May be <= 0; callers treat that as a trivial/empty regime.
        return self.g - self.d + self.r

    @property
    def rho(self) -> int:
        return self.g - self.k * self.kbar


def hook_count(k: int, kbar: int) -> int:
    """Number of standard fillings of a rectangle with ``k`` columns and ``kbar`` rows.

    Hook length product, evaluated in exact integer arithmetic: the hook of
    value ``v`` appears ``min(v, k, kbar, k+kbar-v)`` times in a rectangle.
    """
    if k < 1 or kbar < 1:
        raise ValueError(f"rectangle sides must be positive, got {k}x{kbar}")
    numerator = factorial(k * kbar)
    denominator = 1
    for v in range(1, k + kbar):
        denominator *= v ** min(v, k, kbar, k + kbar - v)
    count, rem = divmod(numerator, denominator)
    if rem:
        raise AssertionError(f"hook product does not divide ({k},{kbar})")
    return count


def count_components(params: BNParams) -> int:
    """Closed-form component count ``binomial(g, rho) * hook_count(k, kbar)``.

    Matches the cardinality of :func:`enumerate_tableaux` in every regime:
    zero when ``rho < 0`` or ``kbar < 0``, one when ``kbar == 0``.
    """
    if params.rho < 0 or params.kbar < 0:
        return 0
    shapes = 1 if params.kbar == 0 else hook_count(params.k, params.kbar)
    return comb(params.g, params.rho) * shapes


def _unchecked(cls, **fields):
    """A frozen ``cls`` from ``fields`` already of the checked types and shapes, unchecked.

    Only the library's builders call it; outside input goes through the constructors.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Tableau:
    """A filling of the ``k x kbar`` rectangle with indices from ``{1..g}``.

    ``rows`` lists the rows top to bottom; row ``m`` (1-indexed) and column
    ``t`` (0-indexed) locate a cell.  The constructor enforces the
    structural shape (kbar rows of width k, distinct entries in range) on
    every tableau built from outside, such as a parsed file; monotonicity
    along rows and columns is the job of :func:`validate_tableau`.
    :func:`enumerate_tableaux` builds its tableaux valid by construction,
    through :func:`_unchecked`, and skips the constructor's checks.
    """

    params: BNParams
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = self.params
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        expected_rows = max(p.kbar, 0)
        if len(rows) != expected_rows:
            raise ValueError(f"expected {expected_rows} rows, got {len(rows)}")
        for row in rows:
            if len(row) != p.k:
                raise ValueError(f"expected rows of width {p.k}, got {len(row)}")
        entries = [v for row in rows for v in row]
        if len(set(entries)) != len(entries):
            raise ValueError("tableau entries must be distinct")
        for v in entries:
            if not 1 <= v <= p.g:
                raise ValueError(f"entry {v} outside 1..{p.g}")

    @cached_property
    def _positions(self) -> dict[int, tuple[int, int]]:
        # index -> (column t in 0..k-1, row m in 1..kbar)
        pos = {}
        for m, row in enumerate(self.rows, start=1):
            for t, v in enumerate(row):
                pos[v] = (t, m)
        return pos

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.rows[m][t] for m in range(len(self.rows)))
            for t in range(self.params.k)
        )

    @cached_property
    def column_fills(self) -> tuple[tuple[int, ...], ...]:
        """Prefix column counts: ``column_fills[s][i]`` is beta(i, s) for 0 <= i <= g."""
        g = self.params.g
        table = []
        for col in self.columns:
            marks = [0] * (g + 1)
            for v in col:
                marks[v] = 1
            table.append(tuple(accumulate(marks)))
        return tuple(table)

    @property
    def placed_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._positions))

    @property
    def free_indices(self) -> tuple[int, ...]:
        placed = self._positions
        return tuple(i for i in range(1, self.params.g + 1) if i not in placed)

    def is_placed(self, i: int) -> bool:
        return i in self._positions

    def column_of(self, i: int) -> int:
        """Column ``t(i)`` of a placed index."""
        return self._positions[i][0]

    def row_of(self, i: int) -> int:
        """Row (1-indexed) of a placed index."""
        return self._positions[i][1]

    def column_fill(self, i: int, s: int) -> int:
        """Number of placed indices ``j <= i`` lying in column ``s``.

        This is the prefix column count beta(i, s) for an integer ``i``:
        ``column_fill(0, s) == 0``, and ``i`` outside 0..g counts as the
        nearest end.  A lookup in :attr:`column_fills`.
        """
        p = self.params
        if not 0 <= s < p.k:
            raise ValueError(f"column {s} outside 0..{p.k - 1}")
        return self.column_fills[s][min(max(i, 0), p.g)]


@dataclass(frozen=True)
class TableauCheck:
    ok: bool
    problem: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_tableau(t: Tableau) -> TableauCheck:
    """Check strict increase along rows and down columns.

    Reports the first offending pair of cells.  Structural shape problems are
    already rejected by the :class:`Tableau` constructor.
    """
    for m, row in enumerate(t.rows, start=1):
        for s in range(1, len(row)):
            if row[s - 1] >= row[s]:
                return TableauCheck(
                    False,
                    f"row {m} not increasing: {row[s - 1]} at column {s - 1} "
                    f"vs {row[s]} at column {s}",
                )
    for s, col in enumerate(t.columns):
        for m in range(1, len(col)):
            if col[m - 1] >= col[m]:
                return TableauCheck(
                    False,
                    f"column {s} not increasing: {col[m - 1]} in row {m} "
                    f"vs {col[m]} in row {m + 1}",
                )
    return TableauCheck(True)


def _standard_fillings(k: int, kbar: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the standard fillings of the kbar x k rectangle with 1..k*kbar.

    Lazy, in increasing row-reading word, with no cache: cells are filled
    row-major, trying the smallest value first, so memory is bounded by the
    rectangle rather than by the number of fillings.  A value u < v left
    unused when v goes to cell (m, t) can only sit below row m in a column
    c < t, so v is ruled out once more than ``t * (rows below m)`` values are
    passed over, and so is every larger value.  Values left of the cell were
    counted at earlier cells of the row, so the count runs on from there.
    A row's first cell (t = 0) may pass over no value, so it holds the least
    value not yet placed and is never tried with another; a new row
    therefore starts its scan just past the value above it, not at 1, which
    keeps a one-column rectangle linear in its length rather than quadratic.
    The rule only cuts branches that cannot complete, so the order is that of
    the full search.
    """
    n = k * kbar
    word = [0] * n  # word[p]: value at cell p = (m, t), row-major
    used = [False] * (n + 1)
    scan = [1] * n  # next value to try at cell p
    passed = [0] * n  # unused values below scan[p], all bound for later rows
    p = 0
    while p >= 0:
        m, t = divmod(p, k)
        above = word[p - k] if m else 0
        cap = t * (kbar - 1 - m)
        u, c = scan[p], passed[p]
        while u <= n and c <= cap:
            if not used[u]:
                if u > above:
                    break
                c += 1
            u += 1
        else:
            # cell p is exhausted: free the value of the cell before it
            p -= 1
            if p >= 0:
                used[word[p]] = False
            continue
        word[p] = u
        scan[p], passed[p] = u + 1, c + 1
        if p == n - 1:
            yield tuple(zip(*[iter(word)] * k))  # rows of k
            continue
        used[u] = True
        p += 1
        # the next cell in the row scans on past u; a new row starts past the
        # value above it, as every smaller value is placed by then
        scan[p], passed[p] = (u + 1, c) if t < k - 1 else (word[p - k] + 1, 0)


def enumerate_tableaux(params: BNParams) -> Iterator[Tableau]:
    """Yield every tableau for ``params`` in a fixed, reproducible order.

    Order: lexicographic in the free-index subset, then lexicographic in the
    row-reading word.  Count equals :func:`count_components`; the stream is
    empty for an empty locus (``rho < 0``) and for ``kbar < 0``, where the
    expected locus is the whole Jacobian and no rectangle indexes it.  The
    stream is lazy: the fillings are generated afresh for each free subset,
    so memory stays bounded by the rectangle however many tableaux there are.

    The tableaux are valid by construction (shape, distinct entries in
    range, increasing rows and columns), so they are built without the
    :class:`Tableau` constructor's checks.
    """
    rho = params.rho
    if rho < 0 or params.kbar < 0:
        return
    if params.kbar == 0:
        yield _unchecked(Tableau, params=params, rows=())
        return
    universe = range(1, params.g + 1)
    for free in combinations(universe, rho):
        free_set = set(free)
        # label[v]: the index placed in the cell that holds v in the filling
        label = [0, *(i for i in universe if i not in free_set)].__getitem__
        for shape in _standard_fillings(params.k, params.kbar):
            rows = tuple([tuple(map(label, row)) for row in shape])
            yield _unchecked(Tableau, params=params, rows=rows)
