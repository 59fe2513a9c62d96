"""The plan vocabulary both front ends share: JSON job documents for the
REST interface and RheemLatin statements.

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

One table, :data:`KINDS`, declares every operator ``kind``: the fluent-API
method it calls, its dataset, UDF and other fields, typed.  Both front
ends build operators through :func:`build_operator`: a RheemLatin keyword
is the kind's name, but for ``load``, ``load table``, ``load collection``
and ``group``, and the loop ``repeat`` is Latin-only.  The vocabulary is
closed at every level: an unknown kind, or a key the document, its sink,
its ``execution`` block or the kind does not declare, is a
:class:`PlanDocumentError` naming it.  ``platform`` pins accept the
paper's platform names (``Spark``, ``JavaStreams``, ...).
"""

from __future__ import annotations

import ast
import functools
from numbers import Real
from types import CodeType
from typing import Any, NamedTuple

from ..core.context import DataQuanta, RheemContext
from ..core.operators import Join, Sample

#: Distinct UDF sources whose compiled code is kept, most recent first.
MAX_COMPILED_UDFS = 4096

#: Paper platform names -> simulated platform names (the others: lowered).
PLATFORM_ALIASES = {
    "javastreams": "pystreams", "spark": "sparklite", "flink": "flinklite",
    "postgres": "pgres", "postgresql": "pgres", "giraph": "graphlite"}

#: The keys of a job document (``tenant`` / ``priority`` are the server's).
DOCUMENT_KEYS = {"operators", "sink", "execution", "tenant", "priority"}
#: The fields of its ``execution`` block, typed as :data:`KINDS` types them.
EXECUTION_FIELDS = {"platforms": (list, None),
                    "objective": (str, ("runtime", "monetary")),
                    "progressive": (bool, None)}


def resolve_platform(name: str) -> str:
    """Map a user-facing platform name to an engine name."""
    return PLATFORM_ALIASES.get(name.lower(), name.lower())


class PlanDocumentError(ValueError):
    """Raised when a JSON job document is malformed."""


class Kind(NamedTuple):
    """One row of :data:`KINDS`: an entry calls ``method`` on its first
    dataset (a source: on the context) with the other datasets and the
    compiled UDFs in order, and the remaining fields by keyword."""

    method: str
    inputs: tuple[str, ...]
    udfs: dict[str, str]  # field -> the lambda's parameters
    fields: dict[str, tuple[type, Any]]  # every field the kind declares
    needs: tuple[str, ...]  # fields an entry must carry


#: A field's JSON type and its least number or allowed strings.
_STR, _LIST, _BOOL = (str, None), (list, None), (bool, None)
_COUNT, _UNARY = (Real, 0), {"expr": "x, *bc"}


def _kind(method: str, /, inputs: tuple[str, ...] = ("input",),
          udfs: dict[str, str] | None = None,
          needs: tuple[str, ...] | None = None, **fields) -> Kind:
    udfs = udfs or {}
    return Kind(method, inputs, udfs, dict.fromkeys(
        ("name", "kind", "platform", *inputs, *udfs), _STR) | fields,
        ("name", *inputs, *udfs) if needs is None else ("name", *needs))


#: Operator kind -> its row; both front ends build operators from it.
KINDS = {
    "textfile_source": _kind("read_text_file", (), needs=("path",),
                             path=_STR),
    "collection_source": _kind(
        "load_collection", (), needs=("data",), data=_LIST, env=_STR,
        sim_factor=_COUNT, bytes_per_record=_COUNT),
    "table_source": _kind("read_table", (), needs=("table",), table=_STR,
                          projection=_LIST),
    "map": _kind("map", udfs=_UNARY, broadcasts=_LIST,
                 bytes_per_record=_COUNT),
    "flatmap": _kind("flat_map", udfs=_UNARY, broadcasts=_LIST,
                     bytes_per_record=_COUNT),
    "filter": _kind("filter", udfs=_UNARY, broadcasts=_LIST),
    "sample": _kind("sample", size=(int, 0), fraction=_COUNT,
                    method=(str, Sample.METHODS), broadcasts=_LIST),
    "distinct": _kind("distinct"),
    "sort": _kind("sort", udfs={"key": "x"}, needs=("input",),
                  descending=_BOOL),
    "groupby": _kind("group_by", udfs={"key": "x"}, sim_groups=_COUNT),
    "reduceby": _kind("reduce_by_key", udfs={"key": "x", "reducer": "a, b"},
                      sim_groups=_COUNT),
    "reduce": _kind("reduce", udfs={"reducer": "a, b"}),
    "count": _kind("count"),
    "cache": _kind("cache"),
    "union": _kind("union", ("left", "right")),
    "intersect": _kind("intersect", ("left", "right")),
    "join": _kind("join", ("left", "right"),
                  {"left_key": "x", "right_key": "x"}, selectivity=_COUNT,
                  sim_mode=(str, Join.SIM_MODES)),
    "pagerank": _kind("pagerank", iterations=(int, 1), damping=_COUNT),
}


def typed(value: Any, expected: type, what: str) -> Any:
    """``value``, or a :class:`PlanDocumentError` naming the field."""
    if not isinstance(value, expected):
        raise PlanDocumentError(f"{what} must be a {expected.__name__}, "
                                f"not {type(value).__name__}")
    return value


def checked(mapping: dict, fields: dict[str, tuple[type, Any]],
            what: str) -> dict:
    """The non-null values of the dict ``mapping``, each checked against
    its type and bound in ``fields``; a key ``fields`` lacks is refused."""
    values = {}
    for key, value in typed(mapping, dict, what).items():
        if key not in fields:
            raise PlanDocumentError(f"{what} has no field {key!r}")
        if value is None:
            continue
        expected, allowed = fields[key]
        if isinstance(value, bool) != (expected is bool) \
                or not isinstance(value, expected):
            raise PlanDocumentError(f"{what} field {key!r} must be a "
                                    f"{expected.__name__}, not "
                                    f"{type(value).__name__}")
        if (value not in allowed if isinstance(allowed, tuple)
                else allowed is not None and not value >= allowed):
            raise PlanDocumentError(f"{what} field {key!r} cannot be "
                                    f"{value!r}")
        values[key] = value
    return values


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


def _dataset(datasets: dict[str, DataQuanta], name: Any) -> DataQuanta:
    try:
        return datasets[typed(name, str, "a dataset reference")]
    except KeyError:
        raise PlanDocumentError(f"unknown dataset {name!r}") from None


def build_operator(ctx: RheemContext, spec: dict,
                   datasets: dict[str, DataQuanta],
                   env: dict[str, Any]) -> DataQuanta:
    """The DataQuanta of one operator entry, checked against its row.

    ``datasets`` maps the names built so far; each UDF closes over its
    own copy of ``env``, where an ``env`` field names a collection.
    Raises a :class:`PlanDocumentError` on what the row or operator refuses.
    """
    what = f"operator {spec.get('name', '?')!r}"
    kind = spec.get("kind")
    row = KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise PlanDocumentError(f"{what}: unknown operator kind {kind!r}")
    values = checked(spec, row.fields, what)
    key = values.pop("env", None)
    if key is not None and "data" not in values:
        if key not in env:
            raise PlanDocumentError(f"{what} field 'env': no env entry "
                                    f"{key!r}")
        values["data"] = env[key]
    for key in row.needs:
        if key not in values:
            raise PlanDocumentError(f"{what} misses field {key!r}")
    args = [_dataset(datasets, values.pop(key)) for key in row.inputs]
    for key, params in row.udfs.items():
        if key in values:
            expr = values.pop(key)
            try:
                args.append(eval(_lambda_code(params, expr), dict(env)))
            except (SyntaxError, ValueError) as exc:  # ValueError: a NUL
                raise PlanDocumentError(f"{what} field {key!r}: bad "
                                        f"expression {expr!r}: {exc}") from exc
    if "broadcasts" in values:
        values["broadcasts"] = [_dataset(datasets, name)
                                for name in values["broadcasts"]]
    del values["name"], values["kind"]
    platform = values.pop("platform", None)
    try:
        dq = getattr(args.pop(0) if row.inputs else ctx,
                     row.method)(*args, **values)
    except ValueError as exc:  # e.g. both or neither of size / fraction
        raise PlanDocumentError(f"{what}: {exc}") from None
    if platform:
        dq.with_target_platform(resolve_platform(platform))
    return dq


def build_quanta(
    ctx: RheemContext,
    document: dict,
    env: dict[str, Any] | None = None,
) -> DataQuanta:
    """Materialize the document's dataflow; returns the sink's DataQuanta.

    Raises a :class:`PlanDocumentError` on an undeclared key, two entries
    of one name, a dangling name or what :func:`build_operator` refuses.
    """
    env = dict(env or {})
    datasets: dict[str, DataQuanta] = {}
    for key in document:
        if key not in DOCUMENT_KEYS:
            raise PlanDocumentError(f"the document has no field {key!r}")
    for spec in typed(document.get("operators", []), list, "'operators'"):
        dq = build_operator(ctx, typed(spec, dict, "an 'operators' entry"),
                            datasets, env)
        if spec["name"] in datasets:
            raise PlanDocumentError(
                f"two operators are named {spec['name']!r}")
        datasets[spec["name"]] = dq

    sink = checked(document.get("sink", {}), {"name": _STR}, "'sink'")
    if "name" not in sink:
        raise PlanDocumentError("document needs a 'sink' entry")
    return _dataset(datasets, sink["name"])
