"""JSON plan (de)serialization for the REST interface.

The paper lists REST among Rheem's APIs; REST clients cannot ship compiled
UDFs, so — like RheemLatin — the JSON format carries UDFs as Python
expressions over conventional variable names (``x`` for the record, ``a``/
``b`` for reducer arguments, ``bc`` for broadcast values).  A job document
looks like::

    {
      "operators": [
        {"name": "lines",  "kind": "textfile_source",
         "path": "hdfs://data/x.txt"},
        {"name": "words",  "kind": "flatmap", "input": "lines",
         "expr": "x.split()"},
        {"name": "pairs",  "kind": "map", "input": "words",
         "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}
      ],
      "sink": {"name": "counts"},
      "execution": {"platforms": ["Spark", "JavaStreams"],
                    "objective": "runtime"}
    }

Operator ``kind``s mirror the fluent API; ``platform`` pins accept the
paper's platform names (``Spark``, ``JavaStreams``, ...).
"""

from __future__ import annotations

import ast
import functools
from numbers import Real
from types import CodeType
from typing import Any, Callable

from ..core.context import DataQuanta, RheemContext
from ..core.operators import Join, Sample
from ..latin.translator import resolve_platform

#: Distinct UDF sources whose compiled code is kept, most recent first.
MAX_COMPILED_UDFS = 4096


class PlanDocumentError(ValueError):
    """Raised when a JSON job document is malformed."""


def _field(spec: dict, key: str) -> Any:
    try:
        return spec[key]
    except KeyError:
        raise PlanDocumentError(
            f"operator {spec.get('name', '?')!r} misses field {key!r}"
        ) from None


def typed(value: Any, expected: type, what: str) -> Any:
    """``value``, or a :class:`PlanDocumentError` naming the field."""
    if not isinstance(value, expected):
        raise PlanDocumentError(f"{what} must be a {expected.__name__}, "
                                f"not {type(value).__name__}")
    return value


#: The optional fields of an operator entry: field -> (JSON type, the least
#: number or the allowed strings).  Null means absent.
FIELDS = {
    "data": (list, None), "broadcasts": (list, None),
    "projection": (list, None), "path": (str, None), "table": (str, None),
    "env": (str, None), "platform": (str, None), "descending": (bool, None),
    "sim_factor": (Real, 0), "bytes_per_record": (Real, 0),
    "size": (int, 0), "fraction": (Real, 0), "selectivity": (Real, 0),
    "sim_groups": (Real, 0), "method": (str, Sample.METHODS),
    "sim_mode": (str, Join.SIM_MODES), "iterations": (int, 1),
    "damping": (Real, 0),
}


def _check_fields(spec: dict, name: str) -> None:
    """Raise a :class:`PlanDocumentError` on a bad one of :data:`FIELDS`."""
    for key, (expected, allowed) in FIELDS.items():
        value = spec.get(key)
        if value is None:
            continue
        what = f"operator {name!r} field {key!r}"
        if isinstance(value, bool) != (expected is bool) \
                or not isinstance(value, expected):
            raise PlanDocumentError(f"{what} must be a {expected.__name__}, "
                                    f"not {type(value).__name__}")
        if (value not in allowed if isinstance(allowed, tuple)
                else allowed is not None and not value >= allowed):
            raise PlanDocumentError(f"{what} cannot be {value!r}")


@functools.lru_cache(maxsize=MAX_COMPILED_UDFS)
def _lambda_code(params: str, expr: str) -> CodeType:
    """Code of ``lambda <params>: <expr>``, compiled once per source.

    ``expr`` is parsed on its own, so it has to be ONE expression (pasted
    into the lambda's text, ``x)+(1`` closes a wrapping parenthesis).  Only
    code is shared: a function of it closes over one request's ``env``.
    """
    tree = ast.parse(f"lambda {params}: 0", mode="eval")
    tree.body.body = ast.parse(expr.strip(), mode="eval").body
    return compile(tree, "<string>", "eval")


def _compile(spec: dict, key: str, params: str,
             env: dict[str, Any]) -> Callable:
    """The UDF ``spec[key]`` denotes, over its own copy of ``env``."""
    expr = _field(spec, key)
    try:
        code = _lambda_code(params, typed(expr, str, "a UDF source"))
    except (SyntaxError, ValueError) as exc:  # not a str; a NUL byte in it
        raise PlanDocumentError(
            f"operator {spec.get('name', '?')!r} field {key!r}: bad "
            f"expression {expr!r}: {exc}") from exc
    return eval(code, dict(env))


def build_quanta(
    ctx: RheemContext,
    document: dict,
    env: dict[str, Any] | None = None,
) -> DataQuanta:
    """Materialize the document's dataflow; returns the sink's DataQuanta.

    Raises:
        PlanDocumentError: On unknown kinds, missing or mis-typed fields,
            arguments an operator refuses, malformed UDF expressions or
            dangling dataset references.
    """
    env = dict(env or {})
    datasets: dict[str, DataQuanta] = {}

    def dataset(name: str) -> DataQuanta:
        try:
            return datasets[typed(name, str, "a dataset reference")]
        except KeyError:
            raise PlanDocumentError(f"unknown dataset {name!r}") from None

    for spec in typed(document.get("operators", []), list, "'operators'"):
        typed(spec, dict, "an 'operators' entry")
        name = typed(_field(spec, "name"), str, "operator 'name'")
        if name in datasets:
            raise PlanDocumentError(f"two operators are named {name!r}")
        kind = _field(spec, "kind")
        _check_fields(spec, name)
        try:
            dq = _operator(ctx, spec, kind, dataset, env)
        except PlanDocumentError:
            raise
        except ValueError as exc:  # e.g. both or neither of size / fraction
            raise PlanDocumentError(f"operator {name!r}: {exc}") from None
        datasets[name] = dq

    sink = document.get("sink")
    if not sink:
        raise PlanDocumentError("document needs a 'sink' entry")
    return dataset(_field(typed(sink, dict, "'sink'"), "name"))


def _operator(ctx: RheemContext, spec: dict, kind: Any,
              dataset: Callable[[str], DataQuanta],
              env: dict[str, Any]) -> DataQuanta:
    """The DataQuanta of one operator entry, whose fields are checked."""
    broadcasts = [dataset(b) for b in spec.get("broadcasts", [])]
    if kind == "textfile_source":
        dq = ctx.read_text_file(_field(spec, "path"))
    elif kind == "collection_source":
        data = spec.get("data")
        if data is None:
            key = _field(spec, "env")
            if key not in env:
                raise PlanDocumentError(f"operator {spec['name']!r} field "
                                        f"'env': no env entry {key!r}")
            data = env[key]
        dq = ctx.load_collection(
            data, sim_factor=spec.get("sim_factor", 1.0),
            bytes_per_record=spec.get("bytes_per_record", 100.0))
    elif kind == "table_source":
        dq = ctx.read_table(_field(spec, "table"),
                            spec.get("projection"))
    elif kind in ("map", "flatmap", "filter"):
        fn = _compile(spec, "expr", "x, *bc", env)
        src = dataset(_field(spec, "input"))
        if kind == "filter":
            dq = src.filter(fn, broadcasts=broadcasts)
        else:
            method = src.map if kind == "map" else src.flat_map
            dq = method(fn, broadcasts=broadcasts,
                        bytes_per_record=spec.get("bytes_per_record"))
    elif kind == "sample":
        dq = dataset(_field(spec, "input")).sample(
            size=spec.get("size"), fraction=spec.get("fraction"),
            method=spec.get("method", "random"), broadcasts=broadcasts)
    elif kind == "distinct":
        dq = dataset(_field(spec, "input")).distinct()
    elif kind == "sort":
        dq = dataset(_field(spec, "input")).sort(
            key=(_compile(spec, "key", "x", env)
                 if spec.get("key") is not None else None),
            descending=spec.get("descending", False))
    elif kind == "groupby":
        dq = dataset(_field(spec, "input")).group_by(
            _compile(spec, "key", "x", env),
            sim_groups=spec.get("sim_groups"))
    elif kind == "reduceby":
        dq = dataset(_field(spec, "input")).reduce_by_key(
            _compile(spec, "key", "x", env),
            _compile(spec, "reducer", "a, b", env),
            sim_groups=spec.get("sim_groups"))
    elif kind == "reduce":
        dq = dataset(_field(spec, "input")).reduce(
            _compile(spec, "reducer", "a, b", env))
    elif kind == "count":
        dq = dataset(_field(spec, "input")).count()
    elif kind == "cache":
        dq = dataset(_field(spec, "input")).cache()
    elif kind in ("union", "intersect"):
        left = dataset(_field(spec, "left"))
        right = dataset(_field(spec, "right"))
        dq = left.union(right) if kind == "union" \
            else left.intersect(right)
    elif kind == "join":
        dq = dataset(_field(spec, "left")).join(
            dataset(_field(spec, "right")),
            _compile(spec, "left_key", "x", env),
            _compile(spec, "right_key", "x", env),
            selectivity=spec.get("selectivity"),
            sim_mode=spec.get("sim_mode", "linear"))
    elif kind == "pagerank":
        edges = dataset(_field(spec, "input"))
        dq = edges.pagerank(iterations=spec.get("iterations", 10),
                            damping=spec.get("damping", 0.85))
    else:
        raise PlanDocumentError(f"unknown operator kind {kind!r}")
    if spec.get("platform"):
        dq.with_target_platform(resolve_platform(spec["platform"]))
    return dq

