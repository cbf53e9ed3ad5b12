"""JSON object (de)serialization for every value the CLI reads or writes.

Rationals are written as "p/q" strings (always with the denominator, "13/1");
vanishing sequences as decreasing integer lists; tableaux as row lists.  Every
``*_to_obj`` output re-parses to an equal value through the matching
``*_from_obj``.  A rational is read unparsed into :class:`ChainGeometry` or
:func:`point_on_loop`, whose one reader, ``tropical._exact``, takes an integer
or a string such as "-3/4" or "0.25" and refuses exponent forms such as "1e3".
"""

from __future__ import annotations

from fractions import Fraction

from .effective import ConcentrationDescription, EffectiveSeries
from .elliptic import BundleClass, EHSeries, VanishingSequence
from .tableaux import BNParams, Tableau
from .tropical import (
    ChainGeometry,
    ChainPoint,
    Node,
    TropicalDivisor,
    TropVanishingTable,
    point_on_loop,
)


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _check_object(obj, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``obj`` is a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")


def _int(value, what: str) -> int:
    """``value`` as an int, or ``ValueError`` naming ``what``.

    JSON integers pass, and so do integral numbers such as ``3.0``; null,
    strings, lists, objects, booleans and ``3.5`` do not.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what}: expected an integer, got {value!r}")


def _list(value, what: str) -> list:
    """Raise ``ValueError`` naming ``what`` unless ``value`` is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what}: expected a list, got {value!r}")
    return value


def _params(obj: dict) -> BNParams:
    return BNParams(*(_int(obj[key], key) for key in ("g", "d", "r")))


# -- tableaux ----------------------------------------------------------------

def tableau_to_obj(t: Tableau) -> dict:
    return {
        "g": t.params.g,
        "d": t.params.d,
        "r": t.params.r,
        "rows": [list(row) for row in t.rows],
    }


def tableau_list_entry(t: Tableau) -> str:
    """``tableau_to_obj(t)`` as ``json.dumps(records, indent=2)`` writes it in a list.

    The same bytes, built straight from the tableau: the record's inner
    lines carry the list's extra indent of two spaces, its first line none.
    """
    p = t.params
    rows = ",".join(
        ["\n      [\n        " + ",\n        ".join(map(str, row)) + "\n      ]"
         for row in t.rows]
    )
    rows = f"[{rows}\n    ]" if rows else "[]"
    return f'{{\n    "g": {p.g},\n    "d": {p.d},\n    "r": {p.r},\n    "rows": {rows}\n  }}'


def tableau_from_obj(obj: dict) -> Tableau:
    _check_object(obj, "tableau")
    params = _params(obj)
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"rows: expected a list of integer lists, got {rows!r}")
    return Tableau(params, tuple(tuple(_int(v, "rows") for v in row) for row in rows))


# -- series ------------------------------------------------------------------

def _bundle_to_obj(bundle: BundleClass) -> dict:
    if bundle.is_special:
        return {"aP": bundle.a, "bQ": bundle.b}
    return {"generic": bundle.tag}


def _bundle_from_obj(obj: dict, component: int, degree: int) -> BundleClass:
    _check_object(obj, "bundle")
    if "generic" in obj:
        tag = obj["generic"]
        if not isinstance(tag, str):
            raise ValueError(f"generic: expected a string tag, got {tag!r}")
        return BundleClass.generic(component, degree, tag=tag)
    a = _int(obj["aP"], "aP")
    if a + _int(obj["bQ"], "bQ") != degree:
        raise ValueError(
            f"component {component}: aP + bQ != degree {degree}"
        )
    return BundleClass.special(component, degree, a)


def _seq_from_list(values, what: str) -> VanishingSequence:
    """A sequence from a JSON list, each entry read by :func:`_int` and checked once."""
    return VanishingSequence._checked(
        tuple([v if type(v) is int else _int(v, what) for v in _list(values, what)])
    )


def _component_to_obj(bundle: BundleClass, vp: VanishingSequence, vq: VanishingSequence) -> dict:
    return {
        "bundle": _bundle_to_obj(bundle),
        "vanish_P": list(vp.orders),
        "vanish_Q": list(vq.orders),
    }


def _components(obj: dict, g: int) -> list[dict]:
    comps = _list(obj["components"], "components")
    if len(comps) != g:
        raise ValueError(f"expected {g} components, got {len(comps)}")
    for c in comps:
        _check_object(c, "component")
    return comps


def _components_from_obj(comps: list[dict], degrees) -> tuple[tuple, tuple, tuple]:
    """The bundles, P-sides and Q-sides of ``comps``, bundle i of degree ``degrees[i-1]``.

    All bundles are read first, then all P-sides, then all Q-sides.
    """
    bundles = tuple(
        _bundle_from_obj(c["bundle"], i, d_i) for i, (c, d_i) in enumerate(zip(comps, degrees), 1)
    )
    vanish_p = tuple(_seq_from_list(c["vanish_P"], "vanish_P") for c in comps)
    vanish_q = tuple(_seq_from_list(c["vanish_Q"], "vanish_Q") for c in comps)
    return bundles, vanish_p, vanish_q


def eh_series_to_obj(series: EHSeries) -> dict:
    return {
        "g": series.params.g,
        "d": series.params.d,
        "r": series.params.r,
        "components": list(
            map(_component_to_obj, series.bundles, series.vanish_p, series.vanish_q)
        ),
    }


def eh_series_from_obj(obj: dict) -> EHSeries:
    _check_object(obj, "series")
    params = _params(obj)
    comps = _components(obj, params.g)
    return EHSeries(params, *_components_from_obj(comps, [params.d] * len(comps)))


def effective_series_to_obj(series: EffectiveSeries) -> dict:
    return {
        "g": series.params.g,
        "d": series.params.d,
        "r": series.params.r,
        "components": [
            {"degree": d_i, **_component_to_obj(b, wp, wq)}
            for d_i, b, wp, wq in zip(series.degrees, series.bundles, series.w_p, series.w_q)
        ],
        "a": list(series.node_degrees),
    }


def effective_series_from_obj(obj: dict) -> EffectiveSeries:
    _check_object(obj, "series")
    params = _params(obj)
    comps = _components(obj, params.g)
    degrees = tuple(_int(c["degree"], "degree") for c in comps)
    bundles, w_p, w_q = _components_from_obj(comps, degrees)
    node_degrees = tuple(_int(a, "a") for a in _list(obj["a"], "a"))
    return EffectiveSeries(params, degrees, bundles, w_p, w_q, node_degrees)


# -- tropical ----------------------------------------------------------------

def geometry_to_obj(geom: ChainGeometry) -> dict:
    return {
        "g": geom.g,
        "loops": [
            {"l": frac_to_str(l), "m": frac_to_str(m)} for l, m in geom.lengths
        ],
    }


def geometry_from_obj(obj: dict) -> ChainGeometry:
    _check_object(obj, "geometry")
    loops = _list(obj["loops"], "loops")
    if _int(obj["g"], "g") != len(loops):
        raise ValueError(f"g = {obj['g']} but {len(loops)} loops given")
    for lp in loops:
        _check_object(lp, "loop")
    return ChainGeometry(tuple((lp["l"], lp["m"]) for lp in loops))


def point_to_obj(pt: ChainPoint) -> dict:
    if isinstance(pt, Node):
        return {"node": pt.index}
    return {"loop": pt.loop, "coord": frac_to_str(pt.coord)}


def point_from_obj(obj: dict, geom: ChainGeometry) -> ChainPoint:
    """A node, or the point of ``geom`` at the loop and coordinate, in canonical form."""
    _check_object(obj, "point")
    if "node" in obj:
        return Node(_int(obj["node"], "node"))
    return point_on_loop(geom, _int(obj["loop"], "loop"), obj["coord"])


def divisor_to_obj(divisor: TropicalDivisor) -> dict:
    return {
        "points": [
            {**point_to_obj(pt), "mult": mult} for pt, mult in divisor.points
        ]
    }


def divisor_from_obj(obj: dict, geom: ChainGeometry) -> TropicalDivisor:
    _check_object(obj, "divisor")
    pairs = []
    for entry in _list(obj["points"], "points"):
        pt = point_from_obj(entry, geom)
        pairs.append((pt, _int(entry["mult"], "mult")))
    return TropicalDivisor(tuple(pairs))


def table_to_obj(table: TropVanishingTable) -> dict:
    return {
        "u": [list(row.orders) for row in table.u],
        "epsilon": list(table.epsilon),
        "x": [None if pt is None else point_to_obj(pt) for pt in table.x],
        "cases": list(table.case_tags),
    }


def concentration_to_obj(desc: ConcentrationDescription) -> dict:
    entries = []
    for e in desc.entries:
        entry: dict = {"component": e.component, "kind": e.kind}
        if e.kind == "point":
            entry["cP"] = e.c_p
            entry["cQ"] = e.c_q
        entries.append(entry)
    return {
        "g": desc.params.g,
        "d": desc.params.d,
        "r": desc.params.r,
        "head_degree": desc.head_degree,
        "entries": entries,
    }
