"""File and project context handed to lint rules."""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional

from repro.lintkit.annotations import TornSafeAnnotations, find_torn_safe
from repro.lintkit.suppressions import FileSuppressions, find_suppressions


class FileContext:
    """One parsed source file.

    Attributes:
        path: absolute filesystem path.
        rel: posix-style path relative to the project root — rules
            match layers against this (``src/repro/sim/engine.py``).
        source: the file's text.
        tree: the parsed :mod:`ast` module, or ``None`` when the file
            has a syntax error (reported as ``PARSE`` by the engine).
        suppressions: the file's ``# lint: disable=`` comments.
        torn_safe: the file's ``# lint: torn-safe`` annotations,
            consumed by the CONC concurrency rules.
    """

    def __init__(self, path: str, rel: str, source: str):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.source = source
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        self.suppressions: FileSuppressions = find_suppressions(source)
        self.torn_safe: TornSafeAnnotations = find_torn_safe(source)
        if self.tree is not None:
            spans: dict = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.stmt):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    prev = spans.get(node.lineno)
                    # innermost statement wins: least overreach
                    if prev is None or end < prev:
                        spans[node.lineno] = end
            self.suppressions.expand(spans)
            self.torn_safe.expand(spans)

    def in_layer(self, *layers: str) -> bool:
        """True if the file lives under ``repro/<layer>/`` for any of
        the given layer names (package ``__init__`` files included)."""
        for layer in layers:
            if f"repro/{layer}/" in self.rel:
                return True
        return False

    def is_module(self, rel_suffix: str) -> bool:
        return self.rel.endswith(rel_suffix)


class Project:
    """The set of files under analysis plus the project root.

    File paths, and the module names the project model derives from
    them, are taken relative to the root.
    """

    def __init__(self, root: str, files: Iterable[FileContext]):
        self.root = os.path.abspath(root)
        self.files: List[FileContext] = list(files)
