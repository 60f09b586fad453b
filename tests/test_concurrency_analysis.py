"""Concurrency analysis suite: the CFG/dataflow substrate, the project
model (types, call graph, thread entry points), the three concurrency
rules, the multi-line noqa fix, and the GitHub annotations reporter."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Severity, analyze, make_rules
from repro.analysis.cfg import build_cfg
from repro.analysis.cli import main as cli_main
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.engine import collect_files, parse_file
from repro.analysis.reporters import render_github
from repro.analysis.symbols import build_project_model


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def parsed(tmp_path: Path, files: dict[str, str]):
    write_tree(tmp_path, files)
    return [parse_file(p, rel) for p, rel in collect_files([tmp_path])]


def run_rule(tmp_path: Path, rule_id: str, files: dict[str, str]):
    write_tree(tmp_path, files)
    report = analyze([tmp_path], rules=make_rules([rule_id]))
    assert report.parse_errors == []
    return report.findings


def fn_named(source: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name}")


# ---------------------------------------------------------------------------
# CFG + reaching definitions
# ---------------------------------------------------------------------------


class TestDataflow:
    def test_branch_merges_definitions(self):
        fn = fn_named(
            """
            def f(a):
                x = 1
                if a:
                    x = 2
                y = x
            """,
            "f",
        )
        rd = ReachingDefinitions(build_cfg(fn))
        y_assign = fn.body[-1]
        defs = rd.defs_of(y_assign, "x")
        assert {d.node.lineno for d in defs} == {3, 5}

    def test_assignment_kills_prior_definition(self):
        fn = fn_named(
            """
            def f():
                x = 1
                x = 2
                y = x
            """,
            "f",
        )
        rd = ReachingDefinitions(build_cfg(fn))
        defs = rd.defs_of(fn.body[-1], "x")
        assert {d.node.lineno for d in defs} == {4}

    def test_loop_back_edge_carries_definitions(self):
        fn = fn_named(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                return total
            """,
            "f",
        )
        rd = ReachingDefinitions(build_cfg(fn))
        ret = fn.body[-1]
        assert {d.node.lineno for d in rd.defs_of(ret, "total")} == {3, 5}

    def test_setflags_is_a_freeze_redefinition(self):
        fn = fn_named(
            """
            def f():
                arr = build()
                arr.setflags(write=False)
                use(arr)
            """,
            "f",
        )
        rd = ReachingDefinitions(build_cfg(fn))
        use = fn.body[-1]
        kinds = {d.kind for d in rd.defs_of(use, "arr")}
        assert kinds == {"freeze"}

    def test_return_terminates_flow(self):
        fn = fn_named(
            """
            def f(a):
                x = 1
                if a:
                    x = 2
                    return x
                y = x
            """,
            "f",
        )
        rd = ReachingDefinitions(build_cfg(fn))
        # The early return removes the x=2 path from the fallthrough.
        assert {d.node.lineno for d in rd.defs_of(fn.body[-1], "x")} == {3}


# ---------------------------------------------------------------------------
# Project model: types, locks, entry points
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_thread_targets_and_handler_methods_are_entries(self, tmp_path):
        files = parsed(tmp_path, {
            "mod.py": """
                import threading
                from http.server import BaseHTTPRequestHandler

                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        pass

                class Spawner:
                    def start(self):
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        self._helper()

                    def _helper(self):
                        pass
            """,
        })
        model = build_project_model(files)
        names = {fn.name for fn in model.entry_points}
        assert "_run" in names
        assert "do_GET" in names
        # Reachability follows the call graph out of the entry point.
        reachable = {fn.name for fn in model.reachable}
        assert "_helper" in reachable

    def test_lock_inventory_and_attr_types(self, tmp_path):
        files = parsed(tmp_path, {
            "mod.py": """
                import threading

                class Estimator:
                    pass

                class Model:
                    def __init__(self, estimator: Estimator):
                        self.lock = threading.RLock()
                        self.estimator = estimator
            """,
        })
        model = build_project_model(files)
        cls = model.classes_by_name["Model"][0]
        assert cls.lock_attrs == {"lock": "RLock"}
        assert cls.attr_types["estimator"] == "Estimator"


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------

GUARDED_COMMON = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = 0

        def start(self):
            threading.Thread(target=self._worker).start()

        def _worker(self):
            with self._lock:
                self._items += 1
"""


class TestGuardedByRule:
    def test_flags_lock_free_access_with_reachability_severity(self, tmp_path):
        findings = run_rule(tmp_path, "guarded-by", {
            "mod.py": GUARDED_COMMON + """
                def peek(store: Store):
                    return store._items
            """,
        })
        assert [f.rule for f in findings] == ["guarded-by"]
        # peek() is not on any traced thread path: warning, not error.
        assert findings[0].severity is Severity.WARNING
        assert "Store._items" in findings[0].message

    def test_unguarded_access_on_thread_path_is_error(self, tmp_path):
        findings = run_rule(tmp_path, "guarded-by", {
            "mod.py": GUARDED_COMMON.replace(
                "with self._lock:\n                self._items += 1",
                "self._items += 1\n            with self._lock:\n                self._items += 1",
            ),
        })
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR

    def test_lock_alias_is_resolved_through_dataflow(self, tmp_path):
        findings = run_rule(tmp_path, "guarded-by", {
            "mod.py": GUARDED_COMMON + """
                def update(store: Store):
                    lock = store._lock
                    with lock:
                        store._items += 1
            """,
        })
        assert findings == []

    def test_init_writes_and_sync_attrs_are_exempt(self, tmp_path):
        findings = run_rule(tmp_path, "guarded-by", {
            "mod.py": GUARDED_COMMON + """
                def restart(store: Store):
                    store.start()
            """,
        })
        assert findings == []


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------


class TestLockOrderRule:
    def test_direct_nesting_cycle(self, tmp_path):
        findings = run_rule(tmp_path, "lock-order", {
            "mod.py": """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def ab(self):
                        with self._a:
                            with self._b:
                                pass

                    def ba(self):
                        with self._b:
                            with self._a:
                                pass
            """,
        })
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_transitive_cycle_through_calls(self, tmp_path):
        findings = run_rule(tmp_path, "lock-order", {
            "mod.py": """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def left(self):
                        with self._a:
                            self._take_b()

                    def _take_b(self):
                        with self._b:
                            pass

                    def right(self):
                        with self._b:
                            self._take_a()

                    def _take_a(self):
                        with self._a:
                            pass
            """,
        })
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_nonreentrant_lock_reacquired(self, tmp_path):
        findings = run_rule(tmp_path, "lock-order", {
            "mod.py": """
                import threading

                class Once:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def oops(self):
                        with self._lock:
                            with self._lock:
                                pass
            """,
        })
        assert len(findings) == 1
        assert "self-deadlock" in findings[0].message

    def test_rlock_reentry_and_consistent_order_are_fine(self, tmp_path):
        findings = run_rule(tmp_path, "lock-order", {
            "mod.py": """
                import threading

                class Fine:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._inner = threading.Lock()

                    def nested(self):
                        with self._lock:
                            with self._lock:
                                with self._inner:
                                    pass

                    def same_order(self):
                        with self._lock:
                            with self._inner:
                                pass
            """,
        })
        assert findings == []


# ---------------------------------------------------------------------------
# plan-immutability
# ---------------------------------------------------------------------------


class TestPlanImmutabilityRule:
    def test_rebind_element_write_and_out_kwarg(self, tmp_path):
        findings = run_rule(tmp_path, "plan-immutability", {
            "mod.py": """
                import numpy as np

                class MADEPlan:
                    def __init__(self, weights):
                        self.weights = weights

                def corrupt(plan: MADEPlan, x):
                    plan.weights = x

                def poke(plan: MADEPlan):
                    plan.weights[0] = 1.0

                def overwrite(plan: MADEPlan, a, b):
                    np.dot(a, b, out=plan.weights)
            """,
        })
        messages = sorted(f.message for f in findings)
        assert len(findings) == 3
        assert any("rebound" in m for m in messages)
        assert any("element write" in m for m in messages)
        assert any("out=" in m for m in messages)

    def test_unfrozen_array_stored_in_plan(self, tmp_path):
        findings = run_rule(tmp_path, "plan-immutability", {
            "mod.py": """
                import numpy as np

                class MADEPlan:
                    def __init__(self):
                        self.weights = np.zeros(4)
            """,
        })
        assert len(findings) == 1
        assert "without freezing" in findings[0].message

    def test_setflags_and_freezer_helper_satisfy_the_rule(self, tmp_path):
        findings = run_rule(tmp_path, "plan-immutability", {
            "mod.py": """
                import numpy as np

                def _frozen(array):
                    out = np.array(array)
                    out.setflags(write=False)
                    return out

                class MADEPlan:
                    def __init__(self, raw):
                        self.weights = np.zeros(4)
                        self.weights.setflags(write=False)
                        self.bias = _frozen(raw)
            """,
        })
        assert findings == []

    def test_constructor_args_checked_through_branches(self, tmp_path):
        findings = run_rule(tmp_path, "plan-immutability", {
            "mod.py": """
                import numpy as np

                class MADEPlan:
                    def __init__(self, weights):
                        self.weights = weights

                def good(n) -> MADEPlan:
                    arr = np.zeros(4)
                    if n:
                        arr = np.ones(4)
                    arr.setflags(write=False)
                    return MADEPlan(arr)

                def bad(n) -> MADEPlan:
                    arr = np.zeros(4)
                    if n:
                        arr.setflags(write=False)
                    return MADEPlan(arr)
            """,
        })
        assert len(findings) == 1
        assert findings[0].line >= 16  # only the partially-frozen path


# ---------------------------------------------------------------------------
# multi-line noqa suppression
# ---------------------------------------------------------------------------


class TestMultiLineNoqa:
    def test_noqa_on_continuation_line_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                import numpy as np

                a = np.random.rand(
                    3,
                )  # repro: noqa[global-rng]
            """,
        })
        report = analyze([tmp_path], rules=make_rules(["global-rng"]))
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_on_first_line_still_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                import numpy as np

                a = np.random.rand(  # repro: noqa[global-rng]
                    3,
                )
            """,
        })
        report = analyze([tmp_path], rules=make_rules(["global-rng"]))
        assert report.findings == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                import numpy as np

                a = np.random.rand(
                    3,
                )  # repro: noqa[bare-except]
            """,
        })
        report = analyze([tmp_path], rules=make_rules(["global-rng"]))
        assert [f.rule for f in report.findings] == ["global-rng"]

    def test_compound_header_noqa_does_not_blanket_the_body(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                import numpy as np

                if True:  # repro: noqa
                    a = np.random.rand(3)
            """,
        })
        report = analyze([tmp_path], rules=make_rules(["global-rng"]))
        assert [f.rule for f in report.findings] == ["global-rng"]


# ---------------------------------------------------------------------------
# GitHub annotations reporter + --select CLI
# ---------------------------------------------------------------------------


class TestGithubReporter:
    def test_renders_workflow_commands(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": "import numpy as np\n\na = np.random.rand(3)\n",
        })
        report = analyze([tmp_path], rules=make_rules(["global-rng"]))
        output = render_github(report)
        (annotation, summary_line) = output.splitlines()[0], output.splitlines()[-1]
        assert annotation.startswith("::error file=mod.py,line=3,col=5,title=global-rng::")
        assert "1 error(s)" in summary_line

    def test_escapes_newlines_and_percent_in_messages(self):
        import dataclasses

        from repro.analysis.engine import Report
        from repro.analysis.findings import Finding
        from repro.analysis.reporters import _gh_line

        finding = Finding(
            rule="demo",
            severity=Severity.ERROR,
            path="a,b.py",
            line=1,
            col=0,
            message="50% worse\nthan before",
        )
        line = _gh_line(finding)
        assert "50%25 worse%0Athan before" in line
        assert "file=a%2Cb.py" in line


class TestSelectCli:
    def test_select_concurrency_ignores_general_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "mod.py": "import numpy as np\n\na = np.random.rand(3)\n",
        })
        assert cli_main([str(tmp_path), "--select", "concurrency"]) == 0
        assert cli_main([str(tmp_path)]) == 1
        capsys.readouterr()

    def test_select_concurrency_fails_on_race(self, tmp_path, capsys):
        write_tree(tmp_path, {"mod.py": GUARDED_COMMON + """
            def racy(store: Store):
                store._items += 1
        """})
        assert cli_main([str(tmp_path), "--select", "concurrency", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "guarded-by" in out

    def test_unknown_category_is_usage_error(self, tmp_path, capsys):
        assert cli_main([str(tmp_path), "--select", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule category" in err
