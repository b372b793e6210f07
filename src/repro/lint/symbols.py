"""Pass 1 of the lint engine: the project-wide symbol table.

The whole-program rules (:mod:`repro.lint.passes`) need to see the
project as Python's import machinery does, not one file at a time.
This module builds that view:

* :class:`ModuleInfo` — one parsed file: its dotted module name
  (inferred from ``__init__.py`` package markers), AST and source;
* :class:`SymbolTable` — every module, class, function/method and
  module-level mutable binding in the project, plus each module's
  import-alias map so dotted names resolve the way the interpreter
  would (``import x as y``, ``from x import f as g``, relative
  imports, and re-exports through ``__init__.py`` chains).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Constructors whose module-level result is shared mutable state.
_MUTABLE_CONSTRUCTORS = (
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
)

#: Module-level names that are conventionally written once at import
#: time and never mutated afterwards (dunder metadata).
_EXEMPT_GLOBALS = ("__all__",)


def module_name_for(path: str) -> Tuple[str, bool]:
    """Infer ``(dotted module name, is_package)`` from a file path.

    Walks up through directories containing ``__init__.py`` to find the
    package root, mirroring how the import system would address the
    file.  A free-standing file is its own top-level module.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = []
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    parts.reverse()
    if stem == "__init__":
        return ".".join(parts) if parts else stem, True
    return ".".join(parts + [stem]), False


@dataclass
class FunctionInfo:
    """One top-level function or bound method."""

    qualname: str
    modname: str
    name: str
    classname: Optional[str]
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef

    @property
    def lineno(self) -> int:
        return int(getattr(self.node, "lineno", 0))


@dataclass
class ClassInfo:
    """One class definition with its textual bases and own methods."""

    qualname: str
    modname: str
    name: str
    path: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class GlobalMutable:
    """A module-level binding to a mutable container."""

    qualname: str
    modname: str
    name: str
    path: str
    line: int
    col: int
    kind: str  # "list" | "dict" | "set" | constructor name


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    modname: str
    is_package: bool
    tree: ast.Module
    source: str

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.modname
        return self.modname.rsplit(".", 1)[0] if "." in self.modname else ""


def _base_textual_names(cls: ast.ClassDef) -> List[str]:
    """Dotted textual names of a class's bases, subscripts unwrapped."""
    names: List[str] = []
    for base in cls.bases:
        node: ast.expr = base
        while isinstance(node, ast.Subscript):
            node = node.value
        dotted = dotted_name(node)
        if dotted:
            names.append(dotted)
    return names


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class SymbolTable:
    """Project-wide symbols with import-aware name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: modname -> local alias -> dotted import target.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: modname -> global name -> mutable binding record.
        self.globals: Dict[str, Dict[str, GlobalMutable]] = {}

    # -- construction --------------------------------------------------

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.modname] = info
        self.by_path[info.path] = info
        self.imports[info.modname] = {}
        self.globals[info.modname] = {}
        self._index_imports(info)
        self._index_definitions(info)

    def _index_imports(self, info: ModuleInfo) -> None:
        aliases = self.imports[info.modname]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds the top-level package.
                        top = alias.name.split(".")[0]
                        aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _resolve_from_base(
        info: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        """The absolute module a ``from ... import`` pulls from."""
        if not node.level:
            return node.module or ""
        parts = info.package.split(".") if info.package else []
        strip = node.level - 1
        if strip > len(parts):
            return None
        kept = parts[: len(parts) - strip] if strip else parts
        if node.module:
            kept = kept + node.module.split(".")
        return ".".join(kept)

    def _index_definitions(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{info.modname}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qual, info.modname, stmt.name, None, info.path, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._index_global(info, stmt)

    def _index_class(self, info: ModuleInfo, stmt: ast.ClassDef) -> None:
        qual = f"{info.modname}.{stmt.name}"
        cls = ClassInfo(
            qual, info.modname, stmt.name, info.path, stmt,
            base_names=_base_textual_names(stmt),
        )
        for sub in stmt.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mqual = f"{qual}.{sub.name}"
                method = FunctionInfo(
                    mqual, info.modname, sub.name, stmt.name, info.path, sub
                )
                cls.methods[sub.name] = method
                self.functions[mqual] = method
        self.classes[qual] = cls

    def _index_global(
        self, info: ModuleInfo, stmt: "ast.Assign | ast.AnnAssign"
    ) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        else:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        kind = _mutable_kind(value)
        if kind is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id in _EXEMPT_GLOBALS:
                continue
            self.globals[info.modname][target.id] = GlobalMutable(
                f"{info.modname}.{target.id}",
                info.modname,
                target.id,
                info.path,
                stmt.lineno,
                stmt.col_offset,
                kind,
            )

    # -- resolution ----------------------------------------------------

    def resolve(self, modname: str, dotted: str) -> str:
        """Canonicalize ``dotted`` as seen from ``modname``.

        Follows import aliases transitively — including re-exports,
        where ``pkg/__init__.py`` does ``from pkg.impl import f`` and a
        client does ``from pkg import f`` — until the name stops
        changing or a cycle/depth limit is hit.
        """
        seen: Set[Tuple[str, str]] = set()
        current_mod, current = modname, dotted
        for _ in range(16):
            if (current_mod, current) in seen:
                break
            seen.add((current_mod, current))
            head, _, rest = current.partition(".")
            aliases = self.imports.get(current_mod, {})
            if head in aliases:
                target = aliases[head]
                current = f"{target}.{rest}" if rest else target
                current_mod = ""  # target is already absolute
                continue
            if current_mod:
                # An unimported bare name refers to this module's scope.
                absolute = f"{current_mod}.{current}"
                current, current_mod = absolute, ""
                continue
            # Absolute name: maybe a re-export (module.symbol where the
            # module's own import table forwards symbol elsewhere).
            owner, _, symbol = current.rpartition(".")
            if (
                symbol
                and owner in self.imports
                and symbol in self.imports[owner]
                and current not in self.functions
                and current not in self.classes
            ):
                current = self.imports[owner][symbol]
                continue
            break
        return current

    def lookup_function(self, target: str) -> Optional[FunctionInfo]:
        """The FunctionInfo a resolved dotted target refers to, if any.

        A class target resolves to its ``__init__``; a
        ``Class.method`` target resolves through the class hierarchy.
        """
        if target in self.functions:
            return self.functions[target]
        if target in self.classes:
            return self.resolve_method(target, "__init__")
        owner, _, attr = target.rpartition(".")
        if owner and owner in self.classes:
            return self.resolve_method(owner, attr)
        return None

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[FunctionInfo]:
        """Bind ``method`` on a class, walking bases depth-first (MRO-ish)."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.base_names:
                resolved = self.resolve(cls.modname, base)
                if resolved in self.classes:
                    stack.append(resolved)
        return None

    def subclasses_of(self, base_names: Tuple[str, ...]) -> Set[str]:
        """Qualnames of classes transitively deriving from any base name.

        Bases are matched both by resolved qualname and by bare textual
        name, so a fixture subclassing an undefined ``ServeComponent``
        still counts.
        """
        roots: Set[str] = set()
        for cls in self.classes.values():
            for base in cls.base_names:
                bare = base.rpartition(".")[2]
                resolved = self.resolve(cls.modname, base)
                if bare in base_names or resolved.rpartition(".")[2] in base_names:
                    roots.add(cls.qualname)
        # Transitive closure over the known hierarchy.
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                if cls.qualname in roots:
                    continue
                for base in cls.base_names:
                    resolved = self.resolve(cls.modname, base)
                    if resolved in roots:
                        roots.add(cls.qualname)
                        changed = True
                        break
        return roots


def _mutable_kind(value: ast.expr) -> Optional[str]:
    if isinstance(value, ast.List):
        return "list"
    if isinstance(value, ast.Dict):
        return "dict"
    if isinstance(value, ast.Set):
        return "set"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _MUTABLE_CONSTRUCTORS:
            return name
    return None


def build_symbol_table(modules: List[ModuleInfo]) -> SymbolTable:
    """Assemble the project-wide table from parsed modules."""
    table = SymbolTable()
    for info in modules:
        table.add_module(info)
    return table
