"""repolint: rule fixtures (known-bad fires / known-good silent),
suppressions, baseline workflow, CLI exit codes, and the clean-tree gate.

Each rule's known-bad fixture reproduces the bug shape that motivated it;
the nullable-truthiness fixtures include the exact PR-2 ``soft_quota_gb``
bug (a real 0.0 quota treated as NULL).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import textwrap

import pytest

from repro.analysis import (
    LintConfig,
    LintEngine,
    SchemaCatalog,
    Violation,
    build_default_catalog,
    load_baseline,
    parse_suppressions,
    partition,
    save_baseline,
)
from repro.analysis.runner import add_lint_arguments, run_lint
from repro.warehouse.schema import ColumnType, TableSchema, make_columns

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORE = "src/repro/core/fake.py"
ETL = "src/repro/etl/fake.py"
NEUTRAL = "src/repro/simulators/fake.py"


@pytest.fixture(scope="module")
def engine():
    return LintEngine()


def lint(engine, source, path=NEUTRAL):
    return engine.lint_source(textwrap.dedent(source), path)


def fired(engine, source, path=NEUTRAL):
    return sorted({v.rule_id for v in lint(engine, source, path)})


# -- R1: nullable-truthiness --------------------------------------------------


class TestNullableTruthiness:
    def test_exact_pr2_soft_quota_bug_shape(self, engine):
        # The literal PR-2 bug: `if snap["soft_quota_gb"]` treats a stored
        # 0.0 quota (a real value) the same as NULL (unconfigured).
        violations = lint(
            engine,
            """
            def fold(snap):
                if snap["soft_quota_gb"]:
                    return snap["logical_usage_gb"] / snap["soft_quota_gb"]
                return 0.0
            """,
        )
        assert [v.rule_id for v in violations] == ["nullable-truthiness"]
        assert "soft_quota_gb" in violations[0].message
        assert "fact_storage" in violations[0].message

    def test_fixed_shape_is_silent(self, engine):
        assert fired(
            engine,
            """
            def fold(snap):
                soft = snap["soft_quota_gb"]
                if soft is not None and soft > 0:
                    return snap["logical_usage_gb"] / soft
                return 0.0
            """,
        ) == []

    def test_get_call(self, engine):
        assert fired(engine, "x = 1 if row.get('hard_quota_gb') else 2") == [
            "nullable-truthiness"
        ]

    def test_get_with_truthy_default_is_silent(self, engine):
        # a truthy default deliberately changes the truthiness semantics
        assert fired(engine, "x = 1 if row.get('hard_quota_gb', 1.0) else 2") == []

    def test_or_fallback_operand(self, engine):
        # the pre-fix aggregation shape: `snap["hard_quota_gb"] or 0.0`
        assert fired(
            engine, 'total += snap["hard_quota_gb"] or 0.0'
        ) == ["nullable-truthiness"]

    def test_while_not_and_comprehension_contexts(self, engine):
        source = """
        while row["soft_quota_gb"]:
            pass
        if not row["hard_quota_gb"]:
            pass
        xs = [r for r in rows if r["soft_quota_gb"]]
        assert row["hard_quota_gb"]
        """
        violations = lint(engine, source)
        assert [v.rule_id for v in violations] == ["nullable-truthiness"] * 4

    def test_non_nullable_numeric_is_silent(self, engine):
        # fact_job.cpu_hours is non-nullable: truthiness is legitimate
        # (zero really means "no usage"), so the schema-aware rule stays
        # silent where a syntactic rule would cry wolf.
        assert fired(engine, 'w = job["cpu_hours"] or 0.0') == []

    def test_unknown_column_is_silent(self, engine):
        assert fired(engine, 'if row["no_such_column_anywhere"]: pass') == []

    def test_comparison_is_silent(self, engine):
        assert fired(engine, 'if row["soft_quota_gb"] is not None: pass') == []
        assert fired(engine, 'if row["soft_quota_gb"] > 0: pass') == []


# -- R2: mutation-without-version-bump ---------------------------------------


class TestMutationWithoutVersionBump:
    def test_direct_rows_append_fires(self, engine):
        violations = lint(engine, "table._rows.append(row)", path=ETL)
        assert [v.rule_id for v in violations] == ["mutation-without-version-bump"]
        assert "data_version" in violations[0].message

    def test_message_names_every_sanctioned_mutator(self, engine):
        (violation,) = lint(engine, "table._rows.append(row)", path=ETL)
        mutators = (
            "insert", "upsert", "upsert_columns", "update_where",
            "delete_where", "delete_key", "truncate",
        )
        assert "/".join(mutators) in violation.message
        assert "Schema.apply_event/apply_events" in violation.message

    def test_all_private_state_names(self, engine):
        source = """
        t._pk_index[key] = 3
        t._live_count = 0
        t._columnar_cache.clear()
        t._data_version += 1
        """
        violations = lint(engine, source, path=ETL)
        assert len(violations) == 4
        assert {v.rule_id for v in violations} == {"mutation-without-version-bump"}

    def test_warehouse_engine_itself_exempt(self, engine):
        assert fired(
            engine, "table._rows.append(row)",
            path="src/repro/warehouse/engine.py",
        ) == []

    def test_self_attribute_in_foreign_class_silent(self, engine):
        # another class's own `self._rows` is not Table state
        assert fired(
            engine,
            """
            class Buffer:
                def __init__(self):
                    self._rows = []
                def add(self, row):
                    self._rows.append(row)
            """,
            path=ETL,
        ) == []

    def test_public_api_is_silent(self, engine):
        assert fired(engine, "table.insert({'a': 1})", path=NEUTRAL) == []


# -- R3: nondeterminism-in-replication ---------------------------------------


class TestNondeterminism:
    def test_time_time_in_core_fires(self, engine):
        violations = lint(
            engine, "import time\nnow = time.time()", path=CORE
        )
        assert [v.rule_id for v in violations] == ["nondeterminism-in-replication"]

    def test_datetime_now_both_import_forms(self, engine):
        assert fired(
            engine, "import datetime\nd = datetime.datetime.now()", path=CORE
        ) == ["nondeterminism-in-replication"]
        assert fired(
            engine, "from datetime import datetime\nd = datetime.now()", path=CORE
        ) == ["nondeterminism-in-replication"]

    def test_unseeded_random_fires_seeded_silent(self, engine):
        assert fired(
            engine, "import random\nj = random.random()", path=CORE
        ) == ["nondeterminism-in-replication"]
        assert fired(
            engine, "import random\nrng = random.Random()", path=CORE
        ) == ["nondeterminism-in-replication"]
        # the resilience.py idiom: explicitly seeded per attempt
        assert fired(
            engine,
            "import random\nrng = random.Random(f'{seed}:{attempt}')",
            path=CORE,
        ) == []

    def test_numpy_global_state_fires_default_rng_seeded_silent(self, engine):
        assert fired(
            engine, "import numpy as np\nx = np.random.rand(3)", path=CORE
        ) == ["nondeterminism-in-replication"]
        assert fired(
            engine, "import numpy as np\nrng = np.random.default_rng()", path=CORE
        ) == ["nondeterminism-in-replication"]
        assert fired(
            engine, "import numpy as np\nrng = np.random.default_rng(42)", path=CORE
        ) == []

    def test_outside_core_is_silent(self, engine):
        assert fired(engine, "import time\nnow = time.time()", path=NEUTRAL) == []

    def test_auth_exempt_via_config(self, engine):
        # session expiry legitimately reads the clock
        assert fired(
            engine, "import time\nnow = time.time()",
            path="src/repro/auth/fake.py",
        ) == []

    def test_exemption_is_config_driven(self):
        strict = LintEngine(
            catalog=SchemaCatalog(),
            config=LintConfig(
                determinism_paths=("repro/",), determinism_exempt_paths=()
            ),
        )
        assert [
            v.rule_id
            for v in strict.lint_source(
                "import time\nnow = time.time()", "src/repro/auth/fake.py"
            )
        ] == ["nondeterminism-in-replication"]


# -- R4: unknown-column-literal ----------------------------------------------


class TestUnknownColumn:
    def test_row_subscript_unknown_column_fires(self, engine):
        violations = lint(
            engine,
            """
            def scan(schema):
                for snap in schema.table("fact_storage").rows():
                    print(snap["soft_quota"])
            """,
            path=ETL,
        )
        assert [v.rule_id for v in violations] == ["unknown-column-literal"]
        assert "'soft_quota'" in violations[0].message

    def test_known_column_silent(self, engine):
        assert fired(
            engine,
            """
            def scan(schema):
                for snap in schema.table("fact_storage").rows():
                    print(snap["soft_quota_gb"])
            """,
            path=ETL,
        ) == []

    def test_insert_dict_keys_checked(self, engine):
        assert fired(
            engine,
            """
            def load(schema):
                t = schema.table("fact_storage")
                t.insert({"ts": 0, "filesystm": "/home"})
            """,
            path=ETL,
        ) == ["unknown-column-literal"]

    def test_upsert_columns_batch_keys_checked(self, engine):
        violations = lint(
            engine,
            """
            def fold(schema, period, ids, sums):
                t = schema.table(f"agg_storage_{period}")
                t.upsert_columns({"resource_id": ids, "sum_logical_gbs": sums})
            """,
            path=ETL,
        )
        assert [v.rule_id for v in violations] == ["unknown-column-literal"]
        assert "'sum_logical_gbs'" in violations[0].message

    def test_column_array_and_list_methods(self, engine):
        violations = lint(
            engine,
            """
            def cols(schema):
                t = schema.table("fact_storage")
                a = t.column_array("logical_usage_gb")
                b = t.column_array("logical_gb")
                c = t.columns_values(["ts", "file_cnt"])
            """,
            path=ETL,
        )
        assert [v.rule_id for v in violations] == ["unknown-column-literal"] * 2

    def test_fstring_table_name_resolves_by_glob(self, engine):
        # f"agg_storage_{period}" -> agg_storage_* -> all four periods
        assert fired(
            engine,
            """
            def agg(schema, period):
                t = schema.table(f"agg_storage_{period}")
                for row in t.rows():
                    print(row["sum_logical_gbs"])
            """,
            path=ETL,
        ) == ["unknown-column-literal"]

    def test_unknown_table_is_silent(self, engine):
        # pattern matches no catalog table: don't guess
        assert fired(
            engine,
            """
            def scan(schema):
                for row in schema.table("some_plugin_table").rows():
                    print(row["whatever"])
            """,
            path=ETL,
        ) == []

    def test_rebound_row_variable_unions_tables(self, engine):
        # the DimensionCache._prime shape: one `row` name across
        # sequential loops over different tables must not cross-flag
        assert fired(
            engine,
            """
            def prime(s):
                for row in s.table("dim_resource").rows():
                    print(row["resource_id"])
                for row in s.table("dim_person").rows():
                    print(row["person_id"])
            """,
            path=ETL,
        ) == []

    def test_outside_configured_paths_silent(self, engine):
        assert fired(
            engine,
            """
            def scan(schema):
                for snap in schema.table("fact_storage").rows():
                    print(snap["soft_quota"])
            """,
            path="src/repro/core/fake.py",
        ) == []


# -- R5: overbroad-except -----------------------------------------------------


class TestOverbroadExcept:
    def test_except_exception_in_core_loop_fires(self, engine):
        violations = lint(
            engine,
            """
            def pump(events):
                for event in events:
                    try:
                        apply(event)
                    except Exception:
                        pass
            """,
            path=CORE,
        )
        assert [v.rule_id for v in violations] == ["overbroad-except"]

    def test_narrow_except_in_loop_silent(self, engine):
        assert fired(
            engine,
            """
            def pump(events):
                for event in events:
                    try:
                        apply(event)
                    except (ValueError, KeyError):
                        pass
            """,
            path=CORE,
        ) == []

    def test_except_exception_outside_loop_silent(self, engine):
        assert fired(
            engine,
            """
            def once():
                try:
                    apply()
                except Exception:
                    pass
            """,
            path=CORE,
        ) == []

    def test_bare_except_fires_anywhere(self, engine):
        violations = lint(
            engine,
            """
            try:
                go()
            except:
                pass
            """,
            path=NEUTRAL,
        )
        assert [v.rule_id for v in violations] == ["overbroad-except"]
        assert "KeyboardInterrupt" in violations[0].message

    def test_base_exception_fires_anywhere(self, engine):
        assert fired(
            engine,
            """
            try:
                go()
            except BaseException:
                pass
            """,
            path=NEUTRAL,
        ) == ["overbroad-except"]

    def test_non_core_loop_silent(self, engine):
        assert fired(
            engine,
            """
            def pump(events):
                for event in events:
                    try:
                        apply(event)
                    except Exception:
                        pass
            """,
            path=NEUTRAL,
        ) == []


# -- R6: unregistered-metric-name ---------------------------------------------


class TestMetricName:
    def test_bad_suffix_fires(self, engine):
        violations = lint(
            engine,
            """
            def wire(registry):
                registry.counter("replication_events", "Events", ("channel",))
            """,
        )
        assert [v.rule_id for v in violations] == ["unregistered-metric-name"]
        assert "replication_events" in violations[0].message

    def test_camel_case_fires(self, engine):
        assert fired(
            engine,
            """
            def wire(registry):
                registry.gauge("replicationLag_rows")
            """,
        ) == ["unregistered-metric-name"]

    def test_conforming_names_are_silent(self, engine):
        assert fired(
            engine,
            """
            def wire(registry):
                registry.counter("replication_events_applied_total")
                registry.gauge("replication_lag_rows")
                registry.histogram("replication_pump_seconds")
                registry.counter("dump_size_bytes")
            """,
        ) == []

    def test_fires_in_any_path(self, engine):
        # unlike the path-scoped rules, naming applies repo-wide
        assert fired(
            engine,
            """
            def wire(registry):
                registry.histogram("pump-latency")
            """,
            path=CORE,
        ) == ["unregistered-metric-name"]

    def test_non_registry_receivers_with_other_methods_silent(self, engine):
        assert fired(
            engine,
            """
            def stats(collections, values):
                return collections.Counter(values)
            """,
        ) == []

    def test_dynamic_names_are_not_checked(self, engine):
        # only literals are checkable statically; dynamic names are
        # validated at registration time by MetricsRegistry itself
        assert fired(
            engine,
            """
            def wire(registry, name):
                registry.counter(name)
            """,
        ) == []

    def test_pattern_matches_runtime_registry_pattern(self):
        from repro.analysis.rules import MetricNameRule
        from repro.obs.metrics import METRIC_NAME_PATTERN

        assert MetricNameRule.NAME_RE.pattern == METRIC_NAME_PATTERN


# -- R7: unknown-alert-rule-id ------------------------------------------------


class TestAlertRuleId:
    def test_unknown_literal_in_alert_rule_fires(self, engine):
        violations = lint(
            engine,
            """
            def runbook_link(obs):
                return obs.alert_rule("lag_is_hot")
            """,
        )
        assert [v.rule_id for v in violations] == ["unknown-alert-rule-id"]
        assert "lag_is_hot" in violations[0].message

    def test_state_of_first_argument_checked(self, engine):
        assert fired(
            engine,
            """
            def check(monitor, member):
                return monitor.alerts.state_of("bogus_rule", member)
            """,
        ) == ["unknown-alert-rule-id"]

    def test_catalog_ids_are_silent(self, engine):
        assert fired(
            engine,
            """
            def check(monitor, member):
                monitor.alerts.state_of("sync_failure_burn_rate", member)
                monitor.alerts.state_of("member_stale", member)
                return alert_rule("replication_lag_high")
            """,
        ) == []

    def test_bare_lookup_call_checked_too(self, engine):
        assert fired(
            engine,
            """
            def check():
                return alert_rule("whatever_rule")
            """,
        ) == ["unknown-alert-rule-id"]

    def test_dynamic_ids_are_not_checked(self, engine):
        # only literals are statically checkable; dynamic ids raise
        # KeyError at lookup time from alert_rule() itself
        assert fired(
            engine,
            """
            def check(monitor, rule_id, member):
                return monitor.alerts.state_of(rule_id, member)
            """,
        ) == []

    def test_other_receivers_with_other_methods_silent(self, engine):
        assert fired(
            engine,
            """
            def check(d):
                return d.get("anything_at_all")
            """,
        ) == []

    def test_rule_ids_match_shipped_catalog(self):
        from repro.analysis.rules import AlertRuleIdRule
        from repro.obs.alerts import DEFAULT_ALERT_RULES

        assert AlertRuleIdRule.RULE_IDS == frozenset(
            r.id for r in DEFAULT_ALERT_RULES
        )


# -- R11: per-row-bulk-write --------------------------------------------------

DUMP = "src/repro/warehouse/dump.py"
AGG = "src/repro/aggregation/fake.py"


class TestPerRowBulkWrite:
    def test_insert_in_for_loop_fires(self, engine):
        # the shape of every loader before PR 16
        violations = lint(
            engine,
            """
            def ingest(schema, jobs):
                fact = schema.table("fact_job")
                for job in jobs:
                    fact.insert(row_of(job))
            """,
            path=ETL,
        )
        assert [v.rule_id for v in violations] == ["per-row-bulk-write"]
        assert "upsert_columns" in violations[0].message

    def test_upsert_in_while_and_comprehension_fire(self, engine):
        source = """
        def load(table, rows):
            while rows:
                table.upsert(rows.pop())
            return [table.insert(row) for row in rows]
        """
        for path in (ETL, AGG, DUMP):
            assert [v.rule_id for v in lint(engine, source, path=path)] == [
                "per-row-bulk-write"
            ] * 2

    def test_nested_loops_report_each_call_once(self, engine):
        violations = lint(
            engine,
            """
            for entry in dump["tables"]:
                for row in entry["rows"]:
                    table.insert(dict(zip(names, row)))
            """,
            path=DUMP,
        )
        assert len(violations) == 1

    def test_single_write_outside_a_loop_is_silent(self, engine):
        # the ETL high-water marker: one row, no loop
        assert fired(
            engine,
            """
            def advance(markers, source, ts):
                markers.upsert({"source": source, "high_water_ts": ts})
            """,
            path=ETL,
        ) == []

    def test_batched_loader_and_list_insert_are_silent(self, engine):
        assert fired(
            engine,
            """
            def ingest(dims, fact, jobs):
                rows = []
                for job in jobs:
                    rows.insert(0, row_of(job))
                land(dims.stage((fact, rows)))
            """,
            path=ETL,
        ) == []

    def test_scoped_to_bulk_write_paths(self, engine):
        source = """
        for row in rows:
            table.insert(row)
        """
        assert fired(engine, source, path=NEUTRAL) == []
        assert fired(engine, source, path="src/repro/warehouse/engine.py") == []


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    SOURCE = """
    def pump(events):
        for event in events:
            try:
                apply(event)
            except Exception:  # repolint: ignore[overbroad-except] -- quarantine boundary
                pass
    """

    def test_inline_suppression(self, engine):
        assert fired(engine, self.SOURCE, path=CORE) == []

    def test_standalone_comment_targets_next_line(self, engine):
        source = """
        def pump(events):
            for event in events:
                try:
                    apply(event)
                # repolint: ignore[overbroad-except] -- quarantine boundary
                except Exception:
                    pass
        """
        assert fired(engine, source, path=CORE) == []

    def test_wildcard_suppresses_every_rule(self, engine):
        assert fired(
            engine,
            'if row["soft_quota_gb"]: pass  # repolint: ignore[*] -- demo',
        ) == []

    def test_wrong_rule_id_does_not_suppress(self, engine):
        assert fired(
            engine,
            'if row["soft_quota_gb"]: pass  '
            "# repolint: ignore[overbroad-except] -- wrong id",
        ) == ["nullable-truthiness"]

    def test_parse_suppressions_index(self):
        index = parse_suppressions(
            "x = 1\n"
            "# repolint: ignore[rule-a, rule-b] -- next line\n"
            "y = f()\n"
            "z = g()  # repolint: ignore[*]\n"
        )
        assert index.suppresses(3, "rule-a")
        assert index.suppresses(3, "rule-b")
        assert not index.suppresses(3, "rule-c")
        assert not index.suppresses(2, "rule-a")
        assert index.suppresses(4, "anything")


# -- baseline workflow --------------------------------------------------------


def _violation(snippet, rule="nullable-truthiness", path="src/x.py", line=1):
    return Violation(
        rule_id=rule, path=path, line=line, col=0,
        message="m", snippet=snippet,
    )


class TestBaseline:
    def test_fingerprint_ignores_line_numbers_and_whitespace(self):
        a = _violation('if row["q"]:', line=10)
        b = _violation('  if  row["q"]:  ', line=99)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != _violation('if row["z"]:').fingerprint

    def test_roundtrip_and_partition(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        legacy = [_violation('if row["q"]:'), _violation('if row["r"]:')]
        save_baseline(path, legacy)
        baseline = load_baseline(path)
        assert len(baseline) == 2

        # same findings at shifted lines: all baselined, nothing new
        shifted = [
            _violation('if row["q"]:', line=50),
            _violation('if row["r"]:', line=51),
        ]
        new, known = partition(shifted, baseline)
        assert new == [] and len(known) == 2

        # a fresh finding still fails
        fresh = _violation('if row["brand_new"]:')
        new, known = partition(shifted + [fresh], baseline)
        assert new == [fresh] and len(known) == 2

    def test_count_based_matching(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [_violation("dup()"), _violation("dup()")])
        baseline = load_baseline(path)
        three = [_violation("dup()", line=i) for i in (1, 2, 3)]
        new, known = partition(three, baseline)
        assert len(known) == 2 and len(new) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == {}

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(str(path))


# -- catalog ------------------------------------------------------------------


class TestCatalog:
    def test_default_catalog_is_schema_aware(self):
        catalog = build_default_catalog()
        assert "fact_storage" in catalog
        assert catalog.is_nullable_numeric("soft_quota_gb")
        assert "fact_storage" in catalog.nullable_numeric_tables("soft_quota_gb")
        # fact_job measures are non-nullable by design
        assert not catalog.is_nullable_numeric("cpu_hours")
        # period-parameterized aggregates registered for every period
        names = catalog.table_names()
        for period in ("day", "month", "quarter", "year"):
            assert f"agg_job_{period}" in names

    def test_glob_resolution(self):
        catalog = build_default_catalog()
        resolved = {s.name for s in catalog.resolve("agg_storage_*")}
        assert resolved == {
            "agg_storage_day", "agg_storage_month",
            "agg_storage_quarter", "agg_storage_year",
        }
        assert catalog.has_column("agg_storage_*", "avg_logical_gb") is True
        assert catalog.has_column("agg_storage_*", "bogus") is False
        assert catalog.has_column("no_such_*", "x") is None

    def test_primary_key_columns_not_nullable_numeric(self):
        schema = TableSchema(
            name="t",
            columns=make_columns([("id", ColumnType.INT, True)]),
            primary_key=("id",),
        )
        catalog = SchemaCatalog([schema])
        assert not catalog.is_nullable_numeric("id")


# -- CLI runner ---------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


class TestCli:
    def test_list_rules(self):
        out = io.StringIO()
        assert run_lint(_parse(["--list-rules"]), out=out) == 0
        text = out.getvalue()
        for rule_id in (
            "nullable-truthiness", "mutation-without-version-bump",
            "nondeterminism-in-replication", "unknown-column-literal",
            "overbroad-except", "unregistered-metric-name",
            "unguarded-shared-mutation", "blocking-call-under-lock",
            "lock-order-inversion",
        ):
            assert rule_id in text
        # project-wide rules are marked as such in the listing
        assert any(
            "lock-order-inversion" in line and "[project-wide]" in line
            for line in text.splitlines()
        )

    def test_unknown_rule_id_is_usage_error(self):
        assert run_lint(_parse(["--rule", "no-such-rule", "src"])) == 2

    def test_new_violation_fails_then_baseline_accepts(self, tmp_path):
        bad = tmp_path / "repro" / "etl" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('def f(row):\n    return row["soft_quota_gb"] or 0.0\n')
        baseline = str(tmp_path / "baseline.json")

        out = io.StringIO()
        args = _parse([str(bad), "--baseline", baseline])
        assert run_lint(args, out=out) == 1
        assert "nullable-truthiness" in out.getvalue()

        args = _parse([str(bad), "--baseline", baseline, "--write-baseline"])
        assert run_lint(args, out=io.StringIO()) == 0

        args = _parse([str(bad), "--baseline", baseline])
        assert run_lint(args, out=io.StringIO()) == 0

        # --no-baseline reports it again
        args = _parse([str(bad), "--baseline", baseline, "--no-baseline"])
        assert run_lint(args, out=io.StringIO()) == 1

    def test_json_format(self, tmp_path):
        bad = tmp_path / "repro" / "etl" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('x = 1 if row.get("hard_quota_gb") else 2\n')
        out = io.StringIO()
        args = _parse([str(bad), "--no-baseline", "--format", "json"])
        assert run_lint(args, out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["new"][0]["rule"] == "nullable-truthiness"
        assert payload["baselined"] == []

    def test_syntax_error_reported(self, engine):
        violations = engine.lint_source("def broken(:\n", "src/x.py")
        assert [v.rule_id for v in violations] == ["syntax-error"]

    def test_cli_subcommand_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--list-rules"])
        assert args.func(args) == 0

    def test_concurrency_rule_selectable_by_id(self, tmp_path):
        bad = tmp_path / "repro" / "ui" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent(
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _n
                    self._n = 0
                def bump(self):
                    self._n += 1
            """
        ))
        out = io.StringIO()
        args = _parse([
            str(bad), "--no-baseline", "--rule", "unguarded-shared-mutation",
        ])
        assert run_lint(args, out=out) == 1
        assert "unguarded-shared-mutation" in out.getvalue()

    def test_clean_run_summary_distinguishes_baselined(self, tmp_path):
        bad = tmp_path / "repro" / "etl" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('def f(row):\n    return row["soft_quota_gb"] or 0.0\n')
        clean = tmp_path / "repro" / "etl" / "clean.py"
        clean.write_text("x = 1\n")
        baseline = str(tmp_path / "baseline.json")

        # genuinely clean file: explicit "clean" wording
        out = io.StringIO()
        args = _parse([str(clean), "--baseline", baseline])
        assert run_lint(args, out=out) == 0
        assert "clean (no findings)" in out.getvalue()

        # baselined finding: exits 0 but is NOT reported as clean
        args = _parse([str(bad), "--baseline", baseline, "--write-baseline"])
        assert run_lint(args, out=io.StringIO()) == 0
        out = io.StringIO()
        args = _parse([str(bad), "--baseline", baseline])
        assert run_lint(args, out=out) == 0
        text = out.getvalue()
        assert "clean" not in text
        assert "0 new violation(s), 1 baselined" in text

    def test_internal_error_exits_2(self, tmp_path, monkeypatch):
        target = tmp_path / "repro" / "x.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")

        from repro.analysis.engine import LintEngine

        def boom(self, paths, jobs=1):
            raise RuntimeError("injected engine crash")

        monkeypatch.setattr(LintEngine, "lint_paths", boom)
        assert run_lint(_parse([str(target)]), out=io.StringIO()) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope" / "missing.py")
        args = _parse([missing, "--no-baseline"])
        # os.walk silently yields nothing for missing dirs; a missing
        # *file* path surfaces as OSError -> exit 2
        out = io.StringIO()
        code = run_lint(args, out=out)
        assert code in (0, 2)


class TestParallelJobs:
    def test_jobs_output_identical_to_sequential(self, tmp_path):
        # several files with known findings: parallel run must produce
        # byte-identical output (same findings, same order)
        pkg = tmp_path / "repro" / "etl"
        pkg.mkdir(parents=True)
        for i in range(6):
            (pkg / f"mod{i}.py").write_text(
                f'def f{i}(row):\n    return row["soft_quota_gb"] or {i}.0\n'
            )
        argv = [str(tmp_path / "repro"), "--no-baseline"]

        seq_out, par_out = io.StringIO(), io.StringIO()
        assert run_lint(_parse(argv), out=seq_out) == 1
        assert run_lint(_parse(argv + ["--jobs", "3"]), out=par_out) == 1
        assert seq_out.getvalue() == par_out.getvalue()
        assert "nullable-truthiness" in seq_out.getvalue()

    def test_jobs_runs_project_rules(self, tmp_path):
        pkg = tmp_path / "repro" / "ui"
        pkg.mkdir(parents=True)
        (pkg / "alpha.py").write_text(textwrap.dedent(
            """
            import threading
            class Alpha:
                def __init__(self):
                    self._alock = threading.Lock()
                def ab(self, b: Beta):
                    with self._alock:
                        with b._block:
                            pass
            """
        ))
        (pkg / "beta.py").write_text(textwrap.dedent(
            """
            import threading
            class Beta:
                def __init__(self):
                    self._block = threading.Lock()
                def ba(self, a: Alpha):
                    with self._block:
                        with a._alock:
                            pass
            """
        ))
        out = io.StringIO()
        argv = [str(tmp_path / "repro"), "--no-baseline", "--jobs", "2"]
        assert run_lint(_parse(argv), out=out) == 1
        assert "lock-order-inversion" in out.getvalue()

    def test_jobs_zero_means_cpu_count(self, tmp_path):
        target = tmp_path / "repro" / "x.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        out = io.StringIO()
        assert run_lint(
            _parse([str(target), "--no-baseline", "--jobs", "0"]), out=out
        ) == 0


class TestRuleCatalogParity:
    def test_every_rule_documented_in_static_analysis_md(self):
        from repro.analysis import ALL_FILE_RULES
        from repro.analysis.concurrency import ALL_PROJECT_RULES

        doc = open(
            os.path.join(REPO_ROOT, "docs", "static-analysis.md"),
            encoding="utf-8",
        ).read()
        for rule in (*ALL_FILE_RULES, *ALL_PROJECT_RULES):
            assert rule.id in doc, (
                f"rule {rule.id!r} missing from docs/static-analysis.md"
            )

    def test_file_rule_registry_includes_concurrency_rules(self):
        from repro.analysis import ALL_FILE_RULES, ALL_RULES

        ids = [rule.id for rule in ALL_FILE_RULES]
        assert set(r.id for r in ALL_RULES) < set(ids)
        assert "unguarded-shared-mutation" in ids
        assert "blocking-call-under-lock" in ids


# -- the gate: current tree is clean ------------------------------------------


class TestCleanTree:
    def test_src_repro_is_clean_against_committed_baseline(self, engine):
        src = os.path.join(REPO_ROOT, "src", "repro")
        findings = engine.lint_paths([src])
        baseline = load_baseline(
            os.path.join(REPO_ROOT, ".repolint-baseline.json")
        )
        new, _known = partition(findings, baseline)
        assert new == [], "\n".join(v.format() for v in new)
