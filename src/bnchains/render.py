"""Plain-text rendering of tableaux, series tables, divisors and tables.

Series tables follow the two-row-per-component convention: the vanishing at
P_i is printed in increasing order, the vanishing at Q_i in decreasing order,
so matching columns pair the orders of one section across the two points.
"""

from __future__ import annotations

from fractions import Fraction

from .effective import ConcentrationDescription, EffectiveSeries
from .elliptic import BundleClass, EHSeries
from .tableaux import Tableau
from .tropical import (
    ChainGeometry,
    ChainPoint,
    Interior,
    Node,
    TropicalDivisor,
    TropVanishingTable,
    special_multiplicity,
)


def render_tableau(t: Tableau) -> str:
    if not t.rows:
        return f"(empty tableau; free indices {list(t.free_indices)})"
    width = max(len(str(v)) for row in t.rows for v in row)
    lines = [" ".join(f"{v:>{width}}" for v in row) for row in t.rows]
    if t.free_indices:
        lines.append(f"free: {list(t.free_indices)}")
    return "\n".join(lines)


def bundle_label(bundle: BundleClass) -> str:
    a = bundle.a
    if a is None:
        return f"generic[{bundle.tag}]"
    i = bundle.component
    b = bundle.degree - a
    terms = []
    if a:
        terms.append(f"{a if a != 1 else ''}P_{i}")
    if b:
        terms.append(f"{b if b != 1 else ''}Q_{i}")
    if not terms:
        return "O"
    return "O(" + "+".join(terms) + ")"


def _series_table(bundles, left_seqs, right_seqs) -> str:
    # column by column: each cell is built once, then padded to its column's width
    indices = range(1, len(bundles) + 1)
    comps = [f"C_{i}" for i in indices]
    labels = list(map(bundle_label, bundles))
    lefts = [f"P_{i}" for i in indices]
    ascs = [" ".join(map(str, reversed(seq.orders))) for seq in left_seqs]
    rights = [f"Q_{i}" for i in indices]
    descs = [" ".join(map(str, seq.orders)) for seq in right_seqs]
    w0, w1, w2, w3, w4, w5 = (
        max(map(len, column)) for column in (comps, labels, lefts, ascs, rights, descs)
    )
    return "\n".join(
        [
            f"{c:<{w0}}  {b:<{w1}}  {lp:>{w2}}: {a:<{w3}}  {rp:>{w4}}: {q:<{w5}}".rstrip()
            for c, b, lp, a, rp, q in zip(comps, labels, lefts, ascs, rights, descs)
        ]
    )


def render_eh_series(series: EHSeries) -> str:
    return _series_table(series.bundles, series.vanish_p, series.vanish_q)


def render_effective_series(series: EffectiveSeries) -> str:
    table = _series_table(series.bundles, series.w_p, series.w_q)
    if series.node_degrees:
        nodes = "  ".join(
            f"Q_{alpha}: {a}" for alpha, a in enumerate(series.node_degrees, start=1)
        )
        return f"{table}\nnode degrees a: {nodes}"
    return table


def render_concentration(desc: ConcentrationDescription) -> str:
    lines = [f"C_1  concentration, degree {desc.head_degree}"]
    for e in desc.entries:
        i = e.component
        if e.kind == "trivial":
            lines.append(f"C_{i}  O")
        elif e.kind == "generic":
            lines.append(f"C_{i}  O(x_{i}), x_{i} generic")
        else:
            p_part = f"{e.c_p if e.c_p != 1 else ''}P_{i}" if e.c_p else ""
            label = f"O({e.c_q if e.c_q != 1 else ''}Q_{i}" + (f"-{p_part})" if p_part else ")")
            lines.append(f"C_{i}  {label}, x_{i} + {e.c_p}P_{i} = {e.c_q}Q_{i} in Pic")
    return "\n".join(lines)


def _frac_label(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_label(pt: ChainPoint) -> str:
    if isinstance(pt, Node):
        return f"Q_{pt.index}"
    return f"x(loop {pt.loop} @ {_frac_label(pt.coord)})"


def _term(mult: int, label: str) -> str:
    return label if mult == 1 else f"{mult}·{label}"


def render_divisor(divisor: TropicalDivisor, geom: ChainGeometry) -> str:
    """Term-by-term rendering, with a legend line for each interior point.

    An interior point of loop k at coordinate (u+1)*l_k mod c_k for some
    0 <= u <= deg is annotated with its node congruence; others are marked
    generic.
    """
    if not divisor.points:
        return "0"
    parts = []
    legend = []
    for pt, mult in divisor.points:  # already in chain order
        if isinstance(pt, Node):
            parts.append(_term(mult, point_label(pt)))
        else:
            parts.append(_term(mult, f"x_{pt.loop}"))
            note = _speciality(geom, pt, divisor.degree)
            legend.append(f"  x_{pt.loop} @ {_frac_label(pt.coord)}{note}")
    return "\n".join([" + ".join(parts), *legend])


def _speciality(geom: ChainGeometry, pt: Interior, degree: int) -> str:
    k = pt.loop
    u = special_multiplicity(geom, k, pt.coord)
    if u is not None and u <= degree:
        return f"  ({u}·Q_{k - 1} + x_{k} = {u + 1}·Q_{k} in Pic)"
    return "  (generic)"


def render_trop_table(table: TropVanishingTable) -> str:
    lines = []
    for i, row in enumerate(table.u):
        lines.append(f"Q_{i}  u = " + " ".join(str(v) for v in row.orders))
        if i < len(table.case_tags):
            eps = table.epsilon[i]
            tag = table.case_tags[i]
            extra = ""
            if table.x[i] is not None:
                extra = f", x = {point_label(table.x[i])}"
            lines.append(f"  loop {i + 1}: epsilon={eps}, case ({tag}){extra}")
    return "\n".join(lines)
