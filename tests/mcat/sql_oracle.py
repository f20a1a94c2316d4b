"""The attribute query written as SQL and answered by the SQL engine: the
reference ``test_sql_oracle.py`` checks :func:`repro.mcat.query.search`
against.

A condition list compiles into one ``SELECT`` over a partition's own
``objects``, ``metadata`` and ``annotations`` tables — one ``JOIN`` per
condition, so each condition is existential on its own, and the scope
written as the open path range of its subtree — and runs through the
partition's ``Database.execute``.  Nothing of the catalog's query code is
used: what a condition means here is the engine's comparison over the
stored ``value`` and ``value_num`` columns.

* a value ``float`` reads compares with ``value_num`` where the row has
  one, and as text with ``value`` where it does not:
  ``(value_num op ? OR value_num IS NULL AND value op ?)``;
* any other value, and every LIKE pattern, compares as text:
  ``value op ?``;
* annotations have text only; ``SYS:owner``, ``SYS:kind`` and
  ``SYS:data_type`` are text columns of ``objects``, ``SYS:size`` an INT
  one.

The engine has no ``CAST``, so ``SYS:size`` against a value that is not a
number (the catalog compares the decimal string) cannot be written here:
:func:`compile_search` refuses it, and DESIGN.md ("Query planning")
states that rule.
"""

from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.mcat.catalog import Mcat
from repro.mcat.query import Condition
from repro.mcat.schema import subtree_path_range
from repro.util import paths

#: the ``objects`` column behind each system attribute
SYSTEM_COLUMNS = {"SYS:owner": "owner", "SYS:kind": "kind",
                  "SYS:data_type": "data_type", "SYS:size": "size"}


def _number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def compile_search(scope: str, conditions: Sequence[Condition],
                   include_annotations: bool = False,
                   include_system: bool = False
                   ) -> Optional[Tuple[str, List[Any]]]:
    """``(sql, params)`` selecting the paths of the objects under
    ``scope`` that satisfy every condition; None when no object can: a
    condition on an ``ANN:``/``SYS:`` attribute whose include flag is
    off."""
    joins: List[str] = []
    where = ["o.path > ?", "o.path < ?"]
    params: List[Any] = list(subtree_path_range(paths.normalize(scope)))
    for k, cond in enumerate(conditions):
        op, wanted = cond.op.upper(), cond.value
        number = None if "LIKE" in op else _number(wanted)
        if cond.attr in SYSTEM_COLUMNS:
            if not include_system:
                return None
            column = "o." + SYSTEM_COLUMNS[cond.attr]
            if column == "o.size":
                if number is None:
                    raise ValueError(f"{cond}: SYS:size against text "
                                     "compares a decimal string")
                wanted = number
            where.append(f"{column} {op} ?")
            params.append(wanted)
            continue
        alias = f"t{k}"
        if cond.attr.startswith("ANN:"):
            if not include_annotations:
                return None
            joins.append(f"JOIN annotations {alias} "
                         f"ON {alias}.target_id = o.oid")
            where += [f"{alias}.target_kind = 'object'",
                      f"{alias}.ann_type = ?", f"{alias}.text {op} ?"]
            params += [cond.attr[4:], wanted]
            continue
        joins.append(f"JOIN metadata {alias} ON {alias}.target_id = o.oid")
        where += [f"{alias}.target_kind = 'object'", f"{alias}.attr = ?"]
        params.append(cond.attr)
        if number is None:
            where.append(f"{alias}.value {op} ?")
            params.append(wanted)
        else:
            where.append(f"({alias}.value_num {op} ? OR "
                         f"{alias}.value_num IS NULL AND {alias}.value {op} ?)")
            params += [number, wanted]
    sql = " ".join(["SELECT o.path FROM objects o"] + joins
                   + ["WHERE", " AND ".join(where)])
    return sql, params


def sql_paths(mcat, scope: str, conditions: Sequence[Condition],
              include_annotations: bool = False,
              include_system: bool = False) -> Set[str]:
    """The paths :func:`compile_search`'s ``SELECT`` returns, over every
    partition of ``mcat`` (a bare ``Mcat`` or a ``ShardedMcat``)."""
    compiled = compile_search(scope, conditions, include_annotations,
                              include_system)
    if compiled is None:
        return set()
    dbs = [mcat.db] if isinstance(mcat, Mcat) \
        else [shard.primary.db for shard in mcat.shards]
    return {path for db in dbs for (path,) in db.execute(*compiled).rows}
