"""Pass 1 of the lint engine: symbol table and call graph.

Covers the resolution edge cases the whole-program rules depend on:
aliased imports (``import x as y``, ``from x import f as g``), method
resolution through inheritance, calls made inside lambdas/closures,
and names re-exported through a package ``__init__.py``.
"""

import ast

from repro.lint.symbols import (
    ModuleInfo,
    build_symbol_table,
    module_name_for,
)
from repro.lint.callgraph import build_call_graph, is_ambient_target


def _module(path, modname, source, is_package=False):
    return ModuleInfo(
        path=path,
        modname=modname,
        is_package=is_package,
        tree=ast.parse(source),
        source=source,
    )


def _project_dir(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path, return ModuleInfos."""
    modules = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for rel in files:
        path = tmp_path / rel
        modname, is_package = module_name_for(str(path))
        modules.append(
            _module(str(path), modname, files[rel], is_package=is_package)
        )
    return modules


# -- module naming -----------------------------------------------------------


def test_module_name_walks_package_dirs(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "mod.py").write_text("x = 1\n")
    modname, is_package = module_name_for(str(tmp_path / "pkg/sub/mod.py"))
    assert modname == "pkg.sub.mod"
    assert not is_package
    modname, is_package = module_name_for(str(tmp_path / "pkg/__init__.py"))
    assert modname == "pkg"
    assert is_package


def test_bare_file_is_its_own_module(tmp_path):
    (tmp_path / "solo.py").write_text("x = 1\n")
    modname, is_package = module_name_for(str(tmp_path / "solo.py"))
    assert modname == "solo"
    assert not is_package


# -- import aliases ----------------------------------------------------------


def test_resolve_module_alias():
    table = build_symbol_table(
        [_module("a.py", "a", "import util.rng as r\n")]
    )
    assert table.resolve("a", "r.draw") == "util.rng.draw"


def test_resolve_from_import_alias():
    table = build_symbol_table(
        [_module("a.py", "a", "from util import draw as pick\n")]
    )
    assert table.resolve("a", "pick") == "util.draw"


def test_resolve_follows_alias_chain_across_modules():
    modules = [
        _module("a.py", "a", "from b import g\n\ndef f():\n    g()\n"),
        _module("b.py", "b", "from c import helper as g\n"),
        _module("c.py", "c", "def helper():\n    pass\n"),
    ]
    table = build_symbol_table(modules)
    assert table.resolve("a", "g") == "c.helper"


def test_relative_import_resolution(tmp_path):
    modules = _project_dir(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/core.py": "def spin():\n    pass\n",
            "pkg/user.py": "from .core import spin as whirl\n",
        },
    )
    table = build_symbol_table(modules)
    assert table.resolve("pkg.user", "whirl") == "pkg.core.spin"


def test_reexport_through_package_init(tmp_path):
    modules = _project_dir(
        tmp_path,
        {
            "pkg/__init__.py": "from pkg.impl import work\n",
            "pkg/impl.py": "def work():\n    pass\n",
            "client.py": (
                "from pkg import work\n\ndef go():\n    work()\n"
            ),
        },
    )
    table = build_symbol_table(modules)
    assert table.resolve("client", "work") == "pkg.impl.work"
    graph = build_call_graph(table)
    assert "pkg.impl.work" in graph.callees("client.go")


# -- inheritance method resolution -------------------------------------------


def test_method_resolves_through_inheritance():
    source = (
        "class Base:\n"
        "    def ping(self):\n"
        "        pass\n"
        "\n"
        "class Child(Base):\n"
        "    def go(self):\n"
        "        self.ping()\n"
    )
    table = build_symbol_table([_module("m.py", "m", source)])
    graph = build_call_graph(table)
    assert "m.Base.ping" in graph.callees("m.Child.go")


def test_override_wins_over_base_method():
    source = (
        "class Base:\n"
        "    def ping(self):\n"
        "        pass\n"
        "\n"
        "class Child(Base):\n"
        "    def ping(self):\n"
        "        pass\n"
        "\n"
        "    def go(self):\n"
        "        self.ping()\n"
    )
    table = build_symbol_table([_module("m.py", "m", source)])
    graph = build_call_graph(table)
    callees = graph.callees("m.Child.go")
    assert "m.Child.ping" in callees
    assert "m.Base.ping" not in callees


def test_subclasses_of_is_transitive():
    source = (
        "class ServeComponent:\n"
        "    pass\n"
        "\n"
        "class Shard(ServeComponent):\n"
        "    pass\n"
        "\n"
        "class HotShard(Shard):\n"
        "    pass\n"
    )
    table = build_symbol_table([_module("m.py", "m", source)])
    subs = table.subclasses_of(("ServeComponent",))
    assert {"m.Shard", "m.HotShard"} <= subs


# -- lambdas and closures ----------------------------------------------------


def test_call_inside_lambda_charged_to_owner():
    source = (
        "import os\n"
        "\n"
        "def outer(loop):\n"
        "    loop.submit(lambda: os.urandom(4))\n"
    )
    table = build_symbol_table([_module("m.py", "m", source)])
    graph = build_call_graph(table)
    assert "m.outer" in graph.ambient
    assert graph.ambient["m.outer"][0].target == "os.urandom"


def test_call_inside_closure_charged_to_owner():
    source = (
        "def helper():\n"
        "    pass\n"
        "\n"
        "def outer():\n"
        "    def inner():\n"
        "        helper()\n"
        "    return inner\n"
    )
    table = build_symbol_table([_module("m.py", "m", source)])
    graph = build_call_graph(table)
    assert "m.helper" in graph.callees("m.outer")


# -- ambient classification --------------------------------------------------


def test_ambient_targets():
    assert is_ambient_target("random.random")
    assert is_ambient_target("time.monotonic")
    assert is_ambient_target("os.urandom")
    assert is_ambient_target("uuid.uuid4")
    assert is_ambient_target("datetime.datetime.now")
    # Seeded generators are the sanctioned alternative, not ambient.
    assert not is_ambient_target("random.Random")
    assert not is_ambient_target("math.sqrt")


def test_reaching_and_shortest_path():
    modules = [
        _module(
            "a.py",
            "a",
            "from b import mid\n\ndef top():\n    mid()\n",
        ),
        _module(
            "b.py",
            "b",
            "import os\n\ndef mid():\n    leaf()\n\ndef leaf():\n"
            "    os.urandom(1)\n",
        ),
    ]
    table = build_symbol_table(modules)
    graph = build_call_graph(table)
    tainted = graph.reaching(set(graph.ambient))
    assert {"a.top", "b.mid", "b.leaf"} <= tainted
    assert graph.shortest_path("a.top", "b.leaf") == [
        "a.top",
        "b.mid",
        "b.leaf",
    ]
