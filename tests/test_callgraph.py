"""Unit suite for the project call graph behind R5.

The graph is built from in-memory ``{path: source}`` projects
(:meth:`~repro.analysis.lint.LintProject.from_sources`), so every
resolution rule — same-module defs, aliased and relative imports, methods
through ``self``/``cls`` and one-level type inference, constructor edges,
cycles — is pinned without touching the real tree.
"""

from __future__ import annotations

import textwrap

from repro.analysis import CallGraph, module_name_for_path
from repro.analysis.lint import LintProject


def _graph(**sources: str) -> CallGraph:
    """Build a graph from ``name='source'`` kwargs (name -> src/repro/name.py)."""
    return LintProject.from_sources(
        {
            f"src/repro/{name}.py": textwrap.dedent(source)
            for name, source in sources.items()
        }
    ).callgraph


class TestModuleNames:
    def test_anchored_at_repro_package(self):
        assert module_name_for_path("src/repro/core/dca.py") == "repro.core.dca"
        assert module_name_for_path("src/repro/__init__.py") == "repro"

    def test_outside_package_falls_back_to_stem(self):
        assert module_name_for_path("tests/data/lint_fixtures/r5_bad.py") == "r5_bad"

    def test_package_init_drops_init_component(self):
        assert module_name_for_path("src/repro/core/__init__.py") == "repro.core"


class TestResolution:
    def test_same_module_function_call(self):
        graph = _graph(
            alpha="""
            def helper():
                return 1


            def entry():
                return helper()
            """
        )
        callees = [site.callee for site in graph.callees_of("repro.alpha.entry")]
        assert callees == ["repro.alpha.helper"]

    def test_aliased_and_from_imports(self):
        graph = _graph(
            bonus="""
            def compensate_scores(x):
                return x
            """,
            users="""
            from .bonus import compensate_scores
            from . import bonus as b


            def direct(x):
                return compensate_scores(x)


            def through_alias(x):
                return b.compensate_scores(x)
            """,
        )
        for caller in ("repro.users.direct", "repro.users.through_alias"):
            assert [site.callee for site in graph.callees_of(caller)] == [
                "repro.bonus.compensate_scores"
            ], caller

    def test_methods_self_constructor_and_inference(self):
        graph = _graph(
            engine="""
            class Engine:
                def __init__(self):
                    self.state = 0

                def step(self):
                    return self._advance()

                def _advance(self):
                    return self.state


            def run():
                engine = Engine()
                return engine.step()


            def run_annotated(engine: Engine):
                return engine.step()
            """
        )
        assert [site.callee for site in graph.callees_of("repro.engine.Engine.step")] == [
            "repro.engine.Engine._advance"
        ]
        run_callees = {site.callee for site in graph.callees_of("repro.engine.run")}
        assert run_callees == {"repro.engine.Engine.__init__", "repro.engine.Engine.step"}
        assert [
            site.callee for site in graph.callees_of("repro.engine.run_annotated")
        ] == ["repro.engine.Engine.step"]

    def test_string_annotation_resolves(self):
        graph = _graph(
            conf="""
            class Config:
                def stream(self):
                    return 7


            def use(config: "Config"):
                return config.stream()
            """
        )
        assert [site.callee for site in graph.callees_of("repro.conf.use")] == [
            "repro.conf.Config.stream"
        ]

    def test_dynamic_dispatch_stays_unresolved(self):
        graph = _graph(
            dyn="""
            def entry(callbacks):
                fn = callbacks["draw"]
                return fn() + callbacks.pop()()
            """
        )
        assert list(graph.callees_of("repro.dyn.entry")) == []

    def test_nested_function_calls_attributed_to_enclosing(self):
        graph = _graph(
            closures="""
            def leaf():
                return 3


            def entry():
                def inner():
                    return leaf()

                return inner
            """
        )
        assert [site.callee for site in graph.callees_of("repro.closures.entry")] == [
            "repro.closures.leaf"
        ]


class TestReachability:
    def test_cycles_terminate_with_shortest_chains(self):
        graph = _graph(
            cyc="""
            def a():
                return b()


            def b():
                return a() + c()


            def c():
                return 0
            """
        )
        chains = graph.reachable_from(["repro.cyc.a"])
        assert chains["repro.cyc.a"] == ("repro.cyc.a",)
        assert chains["repro.cyc.b"] == ("repro.cyc.a", "repro.cyc.b")
        assert chains["repro.cyc.c"] == ("repro.cyc.a", "repro.cyc.b", "repro.cyc.c")

    def test_cross_module_chain(self):
        graph = _graph(
            deep="""
            def sink():
                return 1
            """,
            mid="""
            from .deep import sink


            def relay():
                return sink()
            """,
            top="""
            from .mid import relay


            def fit():
                return relay()
            """,
        )
        chains = graph.reachable_from(
            info.qualname for info in graph.functions_named("fit")
        )
        assert chains["repro.deep.sink"] == (
            "repro.top.fit",
            "repro.mid.relay",
            "repro.deep.sink",
        )

    def test_unknown_entries_ignored(self):
        graph = _graph(empty="x = 1\n")
        assert graph.reachable_from(["repro.empty.missing"]) == {}

    def test_functions_named_collects_across_modules(self):
        graph = _graph(
            one="def fit():\n    return 1\n",
            two="def fit():\n    return 2\n",
        )
        assert {info.qualname for info in graph.functions_named("fit")} == {
            "repro.one.fit",
            "repro.two.fit",
        }


def test_real_tree_links_the_acceptance_chain():
    """On the shipped tree, DCA.fit reaches the sampling layer by name."""
    from pathlib import Path

    from repro.analysis.lint import LintModule

    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    modules = [
        LintModule(path, path.read_text()) for path in sorted(root.rglob("*.py"))
    ]
    graph = LintProject(modules).callgraph
    chains = graph.reachable_from(["repro.core.dca.DCA.fit"])
    assert "repro.core.sampling.SampleStream.__init__" in chains
    assert chains["repro.core.dca.DCA.fit"] == ("repro.core.dca.DCA.fit",)
