"""SQL-SELECT subset: tokenizer, AST, recursive-descent parser.

The paper's registered SQL objects "can be any query supported by the
underlying database, including table joins, functions, stored-procedures,
sub-queries and union queries (limitation of size might apply)" — but for
security it recommends registering only SELECTs.  We implement the SELECT
subset the reproduction exercises:

* projection (``*`` or column list, with ``AS`` aliases),
* ``FROM`` with table aliases and any number of ``JOIN ... ON a = b``,
* ``WHERE`` with ``AND``/``OR``/``NOT``, comparison operators
  ``= <> != < > <= >=``, ``LIKE`` / ``NOT LIKE``, ``IN (...)``,
  ``IS [NOT] NULL``,
* aggregates ``COUNT/SUM/MIN/MAX/AVG`` with ``GROUP BY``,
* ``ORDER BY ... [ASC|DESC]``, ``LIMIT``,
* ``UNION [ALL]`` of two selects,
* ``?`` positional bind parameters.

Stored procedures and correlated sub-queries are out of scope (documented
in DESIGN.md); nothing in the paper's observable behaviour needs them.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from repro.errors import DatabaseError

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>\?)
  | (?P<op><>|!=|<=|>=|=|<|>|\*|,|\(|\)|\.|-|\+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN", "IS",
    "NULL", "TRUE", "FALSE", "JOIN", "ON", "AS", "ORDER", "GROUP", "BY",
    "ASC", "DESC", "LIMIT", "UNION", "ALL", "COUNT", "SUM", "MIN", "MAX",
    "AVG", "DISTINCT",
}


#: what each comparison operator means, for the engine's WHERE and the
#: catalog query alike (LIKE aside: a pattern, not an operator function)
COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
           ">": operator.gt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Token:
    kind: str   # 'number' | 'string' | 'param' | 'op' | 'name' | 'keyword'
    text: str
    pos: int


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into typed tokens; raises DatabaseError on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            raise DatabaseError(f"bad SQL character {sql[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "name" and text.upper() in KEYWORDS:
            tokens.append(Token("keyword", text.upper(), m.start()))
        else:
            tokens.append(Token(kind, text, m.start()))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    table: Optional[str]   # alias or table name, None if unqualified
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    value: Any


@dataclass(frozen=True)
class Param:
    """Positional ``?`` bind parameter."""
    index: int


@dataclass(frozen=True)
class Comparison:
    op: str                      # '=', '<>', '<', '>', '<=', '>=', 'LIKE', 'NOT LIKE'
    left: Any
    right: Any


@dataclass(frozen=True)
class InList:
    item: Any
    options: Tuple[Any, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    item: Any
    negated: bool = False


@dataclass(frozen=True)
class And:
    parts: Tuple[Any, ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple[Any, ...]


@dataclass(frozen=True)
class Not:
    part: Any


@dataclass(frozen=True)
class Aggregate:
    func: str                    # COUNT/SUM/MIN/MAX/AVG
    arg: Optional[ColumnRef]     # None for COUNT(*)
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        d = "DISTINCT " if self.distinct else ""
        return f"{self.func}({d}{inner})"


@dataclass(frozen=True)
class SelectItem:
    expr: Union[ColumnRef, Aggregate]
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class Join:
    table: TableRef
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: Tuple[SelectItem, ...]   # empty tuple means '*'
    table: TableRef
    joins: Tuple[Join, ...] = ()
    where: Any = None
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    star: bool = False


@dataclass(frozen=True)
class UnionQuery:
    left: Any        # Select | UnionQuery
    right: Any
    all: bool = False


Query = Union[Select, UnionQuery]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: List[Token], sql: str):
        self.tokens = tokens
        self.sql = sql
        self.pos = 0
        self.param_count = 0

    # token helpers -----------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise DatabaseError(f"unexpected end of SQL: {self.sql!r}")
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            raise DatabaseError(
                f"expected {text or kind} at offset "
                f"{got.pos if got else len(self.sql)} in {self.sql!r}"
            )
        return tok

    # grammar ------------------------------------------------------------

    def parse_query(self) -> Query:
        left = self.parse_select()
        while self.accept("keyword", "UNION"):
            all_flag = bool(self.accept("keyword", "ALL"))
            right = self.parse_select()
            left = UnionQuery(left=left, right=right, all=all_flag)
        if self.peek() is not None:
            tok = self.peek()
            raise DatabaseError(f"trailing tokens at offset {tok.pos}: {tok.text!r}")
        return left

    def parse_select(self) -> Select:
        self.expect("keyword", "SELECT")
        star = False
        items: List[SelectItem] = []
        if self.accept("op", "*"):
            star = True
        else:
            items.append(self.parse_select_item())
            while self.accept("op", ","):
                items.append(self.parse_select_item())
        self.expect("keyword", "FROM")
        table = self.parse_table_ref()
        joins: List[Join] = []
        while self.accept("keyword", "JOIN"):
            jt = self.parse_table_ref()
            self.expect("keyword", "ON")
            left = self.parse_column_ref()
            self.expect("op", "=")
            right = self.parse_column_ref()
            joins.append(Join(table=jt, left=left, right=right))
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.parse_or()
        group_by: List[ColumnRef] = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by.append(self.parse_column_ref())
            while self.accept("op", ","):
                group_by.append(self.parse_column_ref())
        order_by: List[OrderItem] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by.append(self.parse_order_item())
            while self.accept("op", ","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("keyword", "LIMIT"):
            tok = self.expect("number")
            limit = int(tok.text)
        return Select(items=tuple(items), table=table, joins=tuple(joins),
                      where=where, group_by=tuple(group_by),
                      order_by=tuple(order_by), limit=limit, star=star)

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_value_expr()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("name").text
        elif self.peek() and self.peek().kind == "name":
            alias = self.next().text
        return SelectItem(expr=expr, alias=alias)

    def parse_value_expr(self) -> Union[ColumnRef, Aggregate]:
        tok = self.peek()
        if tok and tok.kind == "keyword" and tok.text in (
                "COUNT", "SUM", "MIN", "MAX", "AVG"):
            func = self.next().text
            self.expect("op", "(")
            distinct = bool(self.accept("keyword", "DISTINCT"))
            if self.accept("op", "*"):
                arg = None
            else:
                arg = self.parse_column_ref()
            self.expect("op", ")")
            return Aggregate(func=func, arg=arg, distinct=distinct)
        return self.parse_column_ref()

    def parse_table_ref(self) -> TableRef:
        name = self.expect("name").text
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("name").text
        elif self.peek() and self.peek().kind == "name":
            alias = self.next().text
        return TableRef(table=name, alias=alias)

    def parse_column_ref(self) -> ColumnRef:
        first = self.expect("name").text
        if self.accept("op", "."):
            second = self.expect("name").text
            return ColumnRef(table=first, column=second)
        return ColumnRef(table=None, column=first)

    def parse_order_item(self) -> OrderItem:
        col = self.parse_column_ref()
        desc = False
        if self.accept("keyword", "DESC"):
            desc = True
        else:
            self.accept("keyword", "ASC")
        return OrderItem(column=col, descending=desc)

    # boolean expression grammar: or -> and -> not -> predicate

    def parse_or(self) -> Any:
        parts = [self.parse_and()]
        while self.accept("keyword", "OR"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(parts=tuple(parts))

    def parse_and(self) -> Any:
        parts = [self.parse_not()]
        while self.accept("keyword", "AND"):
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(parts=tuple(parts))

    def parse_not(self) -> Any:
        if self.accept("keyword", "NOT"):
            return Not(part=self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Any:
        if self.accept("op", "("):
            inner = self.parse_or()
            self.expect("op", ")")
            return inner
        left = self.parse_operand()
        tok = self.peek()
        if tok is None:
            raise DatabaseError("predicate missing operator")
        if tok.kind == "op" and (tok.text in COMPARE or tok.text == "!="):
            op = self.next().text
            if op == "!=":
                op = "<>"
            right = self.parse_operand()
            return Comparison(op=op, left=left, right=right)
        if tok.kind == "keyword" and tok.text == "LIKE":
            self.next()
            return Comparison(op="LIKE", left=left, right=self.parse_operand())
        if tok.kind == "keyword" and tok.text == "NOT":
            self.next()
            self.expect("keyword", "LIKE")
            return Comparison(op="NOT LIKE", left=left, right=self.parse_operand())
        if tok.kind == "keyword" and tok.text == "IN":
            self.next()
            self.expect("op", "(")
            options = [self.parse_operand()]
            while self.accept("op", ","):
                options.append(self.parse_operand())
            self.expect("op", ")")
            return InList(item=left, options=tuple(options))
        if tok.kind == "keyword" and tok.text == "IS":
            self.next()
            negated = bool(self.accept("keyword", "NOT"))
            self.expect("keyword", "NULL")
            return IsNull(item=left, negated=negated)
        raise DatabaseError(f"unexpected token {tok.text!r} at offset {tok.pos}")

    def parse_operand(self) -> Any:
        tok = self.peek()
        if tok is None:
            raise DatabaseError("missing operand")
        if tok.kind == "op" and tok.text in ("-", "+"):
            sign = self.next().text
            num = self.expect("number")
            value = _number_value(num.text)
            return Literal(-value if sign == "-" else value)
        if tok.kind == "number":
            self.next()
            return Literal(_number_value(tok.text))
        if tok.kind == "string":
            self.next()
            return Literal(tok.text[1:-1].replace("''", "'"))
        if tok.kind == "param":
            self.next()
            p = Param(index=self.param_count)
            self.param_count += 1
            return p
        if tok.kind == "keyword" and tok.text == "NULL":
            self.next()
            return Literal(None)
        if tok.kind == "keyword" and tok.text in ("TRUE", "FALSE"):
            self.next()
            return Literal(tok.text == "TRUE")
        return self.parse_column_ref()


def _number_value(text: str):
    """Numeric literal: int unless it has a decimal point or exponent."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse(sql: str) -> Query:
    """Parse a SELECT (or UNION of SELECTs); raises DatabaseError on junk."""
    if not isinstance(sql, str) or not sql.strip():
        raise DatabaseError("empty SQL")
    return _Parser(tokenize(sql), sql).parse_query()


def is_select_only(sql: str) -> bool:
    """True iff ``sql`` parses and contains only SELECT statements.

    The paper recommends registering only 'select' commands for database
    objects; MySRB enforces this through the registration form.
    """
    try:
        parse(sql)
        return True
    except DatabaseError:
        return False


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%`` any run, ``_`` one char), once
    per pattern: a query asks for it once per row it tests."""
    return _compile_like(pattern)


@functools.lru_cache(maxsize=256)
def _compile_like(pattern: str) -> "re.Pattern[str]":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)
