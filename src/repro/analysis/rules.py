"""The repolint rule set: repo invariants this codebase has paid to learn.

Every rule here is grounded in a bug class that actually bit this project
(see ``docs/static-analysis.md`` for the full catalog with examples):

- ``nullable-truthiness`` — ``if row["soft_quota_gb"]`` treated a real
  0.0 quota as NULL (the PR-2 silent-corruption bug).  Schema-aware: only
  columns that are *nullable numeric* in a known table are flagged.
- ``mutation-without-version-bump`` — touching ``Table._rows`` (or any
  private index/cache state) outside the warehouse engine skips the
  ``data_version`` bump, so the columnar cache serves stale aggregates
  and the binlog misses the change.
- ``nondeterminism-in-replication`` — wall-clock or unseeded randomness
  in replication/retry paths breaks LSN-addressed replay (two replays of
  the same binlog must behave identically).  Path-scoped via config;
  auth session expiry legitimately reads the clock and is exempt.
- ``unknown-column-literal`` — string column references checked against
  the owning :class:`~repro.warehouse.schema.TableSchema`, so schema
  drift fails at lint time instead of as a KeyError at 2 a.m.
- ``overbroad-except`` — ``except Exception``/bare ``except`` in retry or
  quarantine loops swallows injected faults (and bare ``except`` eats
  ``KeyboardInterrupt``); resilience boundaries that really must catch
  everything carry an explicit suppression with a reason.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .catalog import SchemaCatalog
from .model import Severity, Violation


@dataclass(frozen=True)
class LintConfig:
    """Path scoping knobs for the rules (fragments matched against the
    forward-slash-normalized file path)."""

    #: rule ids to run; None runs every registered rule
    enabled_rules: frozenset[str] | None = None
    #: the one module allowed to touch Table private state
    mutation_exempt_paths: tuple[str, ...] = ("repro/warehouse/engine.py",)
    #: replication/replay paths that must stay deterministic
    determinism_paths: tuple[str, ...] = ("repro/core/",)
    #: paths exempt from the determinism rule (auth reads the clock)
    determinism_exempt_paths: tuple[str, ...] = ("repro/auth/",)
    #: paths where string column literals are checked against schemas
    column_check_paths: tuple[str, ...] = (
        "repro/aggregation/", "repro/etl/", "repro/ui/", "repro/realms/",
    )
    #: paths whose loops must not swallow broad exceptions silently
    except_paths: tuple[str, ...] = ("repro/core/",)
    #: hot paths where blocking calls under a held lock are flagged (R10)
    blocking_paths: tuple[str, ...] = (
        "repro/ui/", "repro/core/", "repro/warehouse/", "repro/obs/",
    )


DEFAULT_CONFIG = LintConfig()


@dataclass
class RuleContext:
    """Everything a rule sees about one file."""

    path: str
    source: str
    lines: list[str]
    catalog: SchemaCatalog
    config: LintConfig

    @property
    def norm_path(self) -> str:
        return self.path.replace("\\", "/")

    def matches(self, fragments: Sequence[str]) -> bool:
        return any(fragment in self.norm_path for fragment in fragments)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class: subclasses set ``id``/``summary`` and implement check()."""

    id: str = ""
    summary: str = ""

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: RuleContext, node: ast.AST, message: str,
        severity: Severity = Severity.ERROR,
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        return Violation(
            rule_id=self.id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=ctx.snippet(line),
            severity=severity,
        )


# -- shared AST helpers -------------------------------------------------------


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


_FALSY_DEFAULTS = (None, 0, 0.0, False, "")


def _column_ref(node: ast.AST) -> str | None:
    """Column name when ``node`` reads a column: ``x["col"]``/``x.get("col")``.

    ``x.get("col", default)`` only counts when the default is falsy —
    a truthy default changes the truthiness semantics legitimately.
    """
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.slice.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and not node.keywords
    ):
        if len(node.args) == 1:
            return node.args[0].value
        default = node.args[1]
        if isinstance(default, ast.Constant) and (
            default.value is None or default.value in _FALSY_DEFAULTS
        ):
            return node.args[0].value
    return None


def _scope_nodes(scope: ast.AST) -> list[ast.AST]:
    """One lexical scope in document order, without nested scopes."""
    out: list[ast.AST] = []

    def descend(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            out.append(child)
            descend(child)

    descend(scope)
    return out


# -- R1: nullable-truthiness --------------------------------------------------


class NullableTruthinessRule(Rule):
    id = "nullable-truthiness"
    summary = (
        "truthiness test on a nullable numeric column where 0/0.0 is a "
        "valid value; compare against None explicitly"
    )

    def _truth_tested(self, tree: ast.Module) -> list[ast.expr]:
        tested: list[ast.expr] = []
        seen: set[int] = set()

        def expand(node: ast.expr) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            if isinstance(node, ast.BoolOp):
                for value in node.values:
                    expand(value)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                expand(node.operand)
            else:
                tested.append(node)

        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                expand(node.test)
            elif isinstance(node, ast.Assert):
                expand(node.test)
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    expand(cond)
        # Standalone ``a or default`` / ``a and b``: every operand except
        # the last is truthiness-tested even outside an if/while.
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp):
                for value in node.values[:-1]:
                    if id(value) not in seen:
                        expand(value)
        return tested

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        for node in self._truth_tested(tree):
            column = _column_ref(node)
            if column is None or not ctx.catalog.is_nullable_numeric(column):
                continue
            tables = sorted(ctx.catalog.nullable_numeric_tables(column))
            yield self.violation(
                ctx, node,
                f"truthiness test on nullable numeric column {column!r} "
                f"(nullable in: {', '.join(tables)}); 0 is a valid value "
                f"that is falsy — test `is not None` instead",
            )


# -- R2: mutation-without-version-bump ---------------------------------------


class MutationWithoutVersionBumpRule(Rule):
    id = "mutation-without-version-bump"
    summary = (
        "direct access to Table private row/index/cache state outside the "
        "warehouse engine bypasses the data_version bump and the binlog"
    )

    PRIVATE_STATE = frozenset(
        {
            "_rows", "_pk_index", "_live_count",
            "_columnar_cache", "_data_version", "_epoch", "_checksum_memo",
        }
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        if ctx.matches(ctx.config.mutation_exempt_paths):
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self.PRIVATE_STATE
                # ``self._rows`` inside an unrelated class is that class's
                # own attribute, not Table state; only flag foreign access
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield self.violation(
                    ctx, node,
                    f"access to Table private state {node.attr!r} outside "
                    f"repro/warehouse/engine.py; mutations that bypass the "
                    f"engine skip the data_version bump (stale columnar "
                    f"cache) and the binlog (lost replication) — use "
                    f"upsert_columns/update_where/delete_where/delete_key/"
                    f"truncate, or Schema.apply_event/apply_rows "
                    f"for replicated events",
                )


# -- R3: nondeterminism-in-replication ---------------------------------------


class NondeterminismRule(Rule):
    id = "nondeterminism-in-replication"
    summary = (
        "wall-clock or unseeded randomness in replication/replay paths; "
        "LSN-addressed replay must be deterministic"
    )

    TIME_FNS = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"}
    )
    DATETIME_FNS = frozenset({"now", "utcnow", "today"})
    RANDOM_FNS = frozenset(
        {
            "random", "randint", "uniform", "choice", "choices", "shuffle",
            "sample", "randrange", "getrandbits", "gauss", "normalvariate",
            "expovariate", "betavariate", "triangular",
        }
    )
    NP_SEEDED_OK = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})

    def _alias_maps(
        self, tree: ast.Module
    ) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        modules: dict[str, str] = {}
        from_names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                for alias in node.names:
                    from_names[alias.asname or alias.name] = (root, alias.name)
        return modules, from_names

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        cfg = ctx.config
        if not ctx.matches(cfg.determinism_paths):
            return
        if ctx.matches(cfg.determinism_exempt_paths):
            return
        modules, from_names = self._alias_maps(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts is None:
                continue
            head = parts[0]
            if head in modules:
                parts = (modules[head],) + parts[1:]
            elif head in from_names:
                parts = from_names[head] + parts[1:]
            message = self._banned(parts, node)
            if message is not None:
                yield self.violation(ctx, node, message)

    def _banned(self, parts: tuple[str, ...], call: ast.Call) -> str | None:
        unseeded = not call.args and not call.keywords
        if parts[0] == "time" and len(parts) == 2 and parts[1] in self.TIME_FNS:
            return (
                f"wall-clock read time.{parts[1]}() in a replication path; "
                f"replay of the same binlog must be deterministic — take "
                f"timestamps as parameters or use LSNs"
            )
        if (
            parts[0] == "datetime"
            and parts[-1] in self.DATETIME_FNS
            and len(parts) in (2, 3)
        ):
            return (
                f"wall-clock read {'.'.join(parts)}() in a replication "
                f"path; pass timestamps in explicitly so replay is "
                f"deterministic"
            )
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in self.RANDOM_FNS:
                return (
                    f"unseeded module-level random.{parts[1]}() in a "
                    f"replication path; use random.Random(seed) so retry "
                    f"jitter and schedules replay identically"
                )
            if parts[1] == "Random" and unseeded:
                return (
                    "random.Random() without a seed in a replication path; "
                    "pass an explicit seed for deterministic replay"
                )
        if parts[0] == "numpy" and len(parts) >= 2 and parts[1] == "random":
            fn = parts[2] if len(parts) > 2 else ""
            if fn and fn not in self.NP_SEEDED_OK:
                return (
                    f"legacy global-state numpy.random.{fn}() in a "
                    f"replication path; use numpy.random.default_rng(seed)"
                )
            if fn in ("default_rng", "RandomState") and unseeded:
                return (
                    f"numpy.random.{fn}() without a seed in a replication "
                    f"path; pass an explicit seed for deterministic replay"
                )
        return None


# -- R4: unknown-column-literal ----------------------------------------------


class UnknownColumnRule(Rule):
    id = "unknown-column-literal"
    summary = (
        "string column reference not defined by the owning TableSchema "
        "(schema drift caught at lint time)"
    )

    #: Table methods whose first string argument names a column.
    COLUMN_ARG_METHODS = frozenset({"column_array", "column_values"})
    #: Table methods whose first list/tuple argument holds column names.
    COLUMN_LIST_METHODS = frozenset({"column_arrays", "columns_values", "upsert_rows"})
    #: Table methods taking a column-batch mapping whose keys are columns.
    ROW_METHODS = frozenset({"upsert_columns"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        if not ctx.matches(ctx.config.column_check_paths):
            return
        scopes: list[ast.AST] = [tree]
        scopes.extend(
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(scope, ctx)

    @staticmethod
    def _table_pattern(call: ast.AST) -> str | None:
        """``<expr>.table("name")`` / ``.table(f"agg_{p}")`` -> name pattern."""
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "table"
            and len(call.args) == 1
        ):
            return None
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            parts: list[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("*")
            pattern = "".join(parts)
            return pattern if pattern.strip("*") else None
        return None

    def _check_scope(self, scope: ast.AST, ctx: RuleContext) -> Iterator[Violation]:
        # A name may be rebound to several tables over a scope (e.g. one
        # ``row`` variable across sequential loops); the analysis is
        # flow-insensitive, so bindings are *sets* of patterns and a
        # column only fires when no bound table defines it.
        table_vars: dict[str, set[str]] = {}
        row_vars: dict[str, set[str]] = {}

        nodes = _scope_nodes(scope)
        # pass 1: bindings (assignments and loop targets)
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                pattern = self._table_pattern(node.value)
                if pattern is not None:
                    table_vars.setdefault(target.id, set()).add(pattern)
                    continue
                # row = table_var.get((...)) — point lookup returns a row dict
                if (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "get"
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.func.value.id in table_vars
                ):
                    row_vars.setdefault(target.id, set()).update(
                        table_vars[node.value.func.value.id]
                    )
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                source = node.iter
                if (
                    isinstance(source, ast.Call)
                    and isinstance(source.func, ast.Attribute)
                    and source.func.attr in ("rows", "raw_rows")
                ):
                    base = source.func.value
                    if isinstance(base, ast.Name) and base.id in table_vars:
                        row_vars.setdefault(node.target.id, set()).update(
                            table_vars[base.id]
                        )
                    else:
                        pattern = self._table_pattern(base)
                        if pattern is not None:
                            row_vars.setdefault(node.target.id, set()).add(
                                pattern
                            )

        if not table_vars and not row_vars:
            return

        # pass 2: column references checked against the catalog
        for node in nodes:
            if isinstance(node, ast.Subscript):
                column = _column_ref(node)
                if (
                    column is not None
                    and isinstance(node.value, ast.Name)
                    and node.value.id in row_vars
                ):
                    yield from self._verify(
                        ctx, node, row_vars[node.value.id], column
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if not isinstance(base, ast.Name):
                    continue
                if base.id in row_vars and node.func.attr == "get":
                    column = _column_ref(node)
                    if column is not None:
                        yield from self._verify(
                            ctx, node, row_vars[base.id], column
                        )
                elif base.id in table_vars:
                    yield from self._check_table_call(
                        ctx, node, table_vars[base.id]
                    )

    def _check_table_call(
        self, ctx: RuleContext, node: ast.Call, patterns: set[str]
    ) -> Iterator[Violation]:
        attr = node.func.attr  # type: ignore[attr-defined]
        if attr in self.COLUMN_ARG_METHODS:
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                yield from self._verify(ctx, node, patterns, node.args[0].value)
        elif attr in self.COLUMN_LIST_METHODS:
            if node.args and isinstance(node.args[0], (ast.List, ast.Tuple)):
                for element in node.args[0].elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        yield from self._verify(
                            ctx, element, patterns, element.value
                        )
        elif attr in self.ROW_METHODS:
            if node.args and isinstance(node.args[0], ast.Dict):
                for key in node.args[0].keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        yield from self._verify(ctx, key, patterns, key.value)

    def _verify(
        self, ctx: RuleContext, node: ast.AST, patterns: set[str], column: str
    ) -> Iterator[Violation]:
        verdicts = {
            pattern: ctx.catalog.has_column(pattern, column)
            for pattern in patterns
        }
        # Silent unless every pattern resolves to known tables and none of
        # them defines the column — unresolved tables mean "don't guess".
        if verdicts and all(v is False for v in verdicts.values()):
            tables = ", ".join(
                schema.name
                for pattern in sorted(patterns)
                for schema in ctx.catalog.resolve(pattern)
            )
            yield self.violation(
                ctx, node,
                f"column {column!r} is not defined by the schema of "
                f"table(s) {', '.join(sorted(patterns))} (resolved: "
                f"{tables}); this would raise at runtime — fix the name "
                f"or update the TableSchema",
            )


# -- R5: overbroad-except -----------------------------------------------------


class OverbroadExceptRule(Rule):
    id = "overbroad-except"
    summary = (
        "bare except / except Exception in retry or quarantine loops "
        "swallows injected faults and KeyboardInterrupt"
    )

    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        in_scope = ctx.matches(ctx.config.except_paths)
        for handler, in_loop in self._handlers(tree):
            if handler.type is None:
                yield self.violation(
                    ctx, handler,
                    "bare `except:` also catches KeyboardInterrupt and "
                    "SystemExit; catch a concrete error type (at most "
                    "`except Exception`)",
                )
                continue
            names = self._names(handler.type)
            if "BaseException" in names:
                yield self.violation(
                    ctx, handler,
                    "`except BaseException` also catches KeyboardInterrupt "
                    "and SystemExit; catch a concrete error type",
                )
            elif "Exception" in names and in_loop and in_scope:
                yield self.violation(
                    ctx, handler,
                    "`except Exception` inside a loop in a retry/replication "
                    "path swallows injected faults indiscriminately; catch "
                    "the expected error types, or suppress with a reason if "
                    "this is a deliberate resilience boundary",
                )

    @staticmethod
    def _names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.add(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.add(expr.attr)
        return names

    def _handlers(
        self, tree: ast.Module
    ) -> Iterator[tuple[ast.ExceptHandler, bool]]:
        def walk(node: ast.AST, in_loop: bool) -> Iterator[tuple[ast.ExceptHandler, bool]]:
            for child in ast.iter_child_nodes(node):
                child_in_loop = in_loop or isinstance(
                    child, (ast.For, ast.AsyncFor, ast.While)
                )
                if isinstance(child, ast.ExceptHandler):
                    yield child, in_loop
                yield from walk(child, child_in_loop)

        yield from walk(tree, False)


# -- R6: unregistered-metric-name ---------------------------------------------


class MetricNameRule(Rule):
    id = "unregistered-metric-name"
    summary = (
        "metric-name literal passed to the telemetry registry must be "
        "snake_case with a unit suffix (_total/_seconds/_bytes/_rows)"
    )

    #: mirrors ``repro.obs.metrics.METRIC_NAME_PATTERN`` — duplicated here
    #: (not imported) so the typed analysis package stays self-contained;
    #: a test asserts the two patterns are identical
    NAME_RE = re.compile(r"^[a-z][a-z0-9_]*_(total|seconds|bytes|rows|ratio)$")

    #: registry factory methods whose first argument is the metric name
    REGISTRY_METHODS = frozenset({"counter", "gauge", "histogram"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.REGISTRY_METHODS
                and node.args
            ):
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            if not self.NAME_RE.match(first.value):
                yield self.violation(
                    ctx, first,
                    f"metric name {first.value!r} violates the naming "
                    "convention: snake_case plus a unit suffix "
                    "(`_total`, `_seconds`, `_bytes`, `_rows`, `_ratio`)",
                )


# -- R7: unknown-alert-rule-id ------------------------------------------------


class AlertRuleIdRule(Rule):
    id = "unknown-alert-rule-id"
    summary = (
        "alert-rule id literal must name a rule shipped in the "
        "repro.obs.alerts catalog"
    )

    #: mirrors ``{r.id for r in repro.obs.alerts.DEFAULT_ALERT_RULES}`` —
    #: duplicated here (not imported) so the typed analysis package stays
    #: self-contained; a test asserts the two sets are identical
    RULE_IDS = frozenset({
        "analytics_anomaly_rate_high",
        "api_error_ratio_high",
        "circuit_breaker_flap",
        "dead_letter_growth",
        "fleet_etl_ingest_stall",
        "fleet_telemetry_stale",
        "member_stale",
        "replication_lag_high",
        "sync_failure_burn_rate",
    })

    #: call targets whose first argument is an alert-rule id: the
    #: :func:`repro.obs.alerts.alert_rule` lookup and
    #: :meth:`repro.obs.alerts.AlertEngine.state_of`
    LOOKUP_FUNCS = frozenset({"alert_rule", "state_of"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in self.LOOKUP_FUNCS:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            if first.value not in self.RULE_IDS:
                yield self.violation(
                    ctx, first,
                    f"alert rule id {first.value!r} names no rule in the "
                    "shipped catalog "
                    f"({', '.join(sorted(self.RULE_IDS))}); dashboards and "
                    "runbooks resolve ids against DEFAULT_ALERT_RULES",
                )


#: Registry, in reporting order.
ALL_RULES: tuple[Rule, ...] = (
    NullableTruthinessRule(),
    MutationWithoutVersionBumpRule(),
    NondeterminismRule(),
    UnknownColumnRule(),
    OverbroadExceptRule(),
    MetricNameRule(),
    AlertRuleIdRule(),
)
