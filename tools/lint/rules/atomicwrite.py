"""R3 — atomic-write idiom in cache/artifact/feature-store modules.

Readers of the cache tiers, artifact directories and feature-store
shards run concurrently with writers (other scan processes, the serving
registry's hot reload).  A direct ``open(..., "w")`` / ``write_text`` /
``np.savez`` into those directories can expose a torn file; the
repo-wide idiom is *sibling temp file + ``os.replace``* (see
``atomic_write_json`` and ``SegmentStore._write_file`` in
``engine/cache.py``).

The rule checks every function in the configured modules: any write
operation (``write_text``/``write_bytes``, the ``open`` builtin with a
writing mode, ``np.savez``/``np.savez_compressed``/``np.save``) in a
function that does not also call ``os.replace``/``os.rename`` is a
finding.  The function-level granularity is deliberate: the idiom keeps
the temp write and the rename adjacent, and a helper that only writes
(hoping its caller renames) is itself a latent torn-file bug.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..core import CallGraph, LintConfig, Module, Project, iter_own_nodes
from ..registry import Finding, Rule, register

_NUMPY_WRITERS = {"savez", "savez_compressed", "save"}
_PATH_WRITERS = {"write_text", "write_bytes"}


@register
class AtomicWriteRule(Rule):
    """Flag non-atomic writes inside the durable-store modules."""

    rule_id = "R3"
    name = "atomic-write"
    description = (
        "cache/artifact/feature-store modules must write via a sibling "
        "temp file + os.replace, never directly into the store"
    )

    def check(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> Iterator[Finding]:
        """Scan every function of every configured module."""
        for module in project.modules_matching(config.atomic_write_modules):
            for info in project.functions.values():
                if info.module is not module:
                    continue
                yield from self._check_function(module, info)

    def _check_function(self, module: Module, info) -> Iterator[Finding]:
        """Flag the function's writes unless it also calls ``os.replace``."""
        writes: List[Tuple[ast.AST, str]] = []
        has_replace = False
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            if self._is_os_replace(module, node):
                has_replace = True
                continue
            described = self._describe_write(module, node)
            if described is not None:
                writes.append((node, described))
        if has_replace or not writes:
            return
        for node, what in writes:
            yield self.finding(
                module.rel,
                node,
                f"non-atomic {what} in a durable-store module; write a "
                "sibling temp file and os.replace() it into place",
                symbol=info.qualname,
            )

    @staticmethod
    def _is_os_replace(module: Module, call: ast.Call) -> bool:
        """True for ``os.replace(...)`` / ``os.rename(...)``."""
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in {"replace", "rename"}
            and isinstance(func.value, ast.Name)
            and module.module_aliases.get(func.value.id) == "os"
        )

    def _describe_write(self, module: Module, call: ast.Call) -> Optional[str]:
        """Classify *call* as a file write, or return ``None``."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_mode(call)
            if mode is not None and any(ch in mode for ch in "wax+"):
                return f"open(..., {mode!r})"
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in _PATH_WRITERS:
                return f".{func.attr}()"
            if func.attr in _NUMPY_WRITERS and isinstance(func.value, ast.Name):
                dotted = module.module_aliases.get(func.value.id)
                if dotted in {"numpy", "np"} or dotted == "numpy":
                    return f"np.{func.attr}()"
        return None

    @staticmethod
    def _open_mode(call: ast.Call) -> Optional[str]:
        """The constant mode string of an ``open`` call, if present."""
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            value = call.args[1].value
            return value if isinstance(value, str) else None
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        return None
