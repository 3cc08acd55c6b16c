"""Engine: discover, parse once, build the graph, run both rule passes.

Dependency policy: stdlib only, and the scanned tree is *parsed*, never
imported — the gate must work in an environment where the project's own
third-party dependencies (numpy, scipy) are absent, and must keep
working on a tree that is too broken to import.

Since the analyzer became two-pass, one run is:

1. parse every file and build the :class:`~repro.analysis.graph.ProjectGraph`
   (symbol tables, call sites, attribute mutations, emit sites);
2. run every per-file rule over each file *and* every project rule over
   the graph, then split the merged findings against the baseline.

``restrict_to`` (the ``--diff`` fast path) restricts *reporting*, not
parsing: the whole tree is still parsed so cross-file rules see the same
graph, and findings are then filtered to the changed files — a changed
file therefore reports exactly what the full sweep attributes to it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import (
    SEVERITY_ERROR,
    FileContext,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    rule_version,
)
from repro.analysis.graph import build_graph
from repro.analysis.rules import default_project_rules, default_rules

PARSE_RULE_ID = "WL000"
REGISTRY_BASENAME = "metric_names.py"


def find_repo_root(start: Path) -> Path | None:
    """Nearest ancestor (or self) holding a ``pyproject.toml``."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            found: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            found = [path]
        else:
            found = []
        for f in found:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                out.append(f)
    return out


def _rel_label(path: Path, root: Path | None) -> str:
    resolved = path.resolve()
    for base in (root, Path.cwd()):
        if base is not None:
            try:
                return resolved.relative_to(base.resolve()).as_posix()
            except ValueError:
                continue
    return resolved.as_posix()


def package_of(path: Path) -> str | None:
    """First package segment under ``repro`` (``cli`` for ``repro/cli.py``)."""
    parts = path.resolve().parts
    try:
        i = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    except ValueError:
        return None
    below = parts[i + 1:]
    if not below:
        return None
    head = below[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head


def _registry_strings(tree: ast.Module, var: str) -> dict[str, int]:
    """Declared strings of one registry variable, with their source lines."""
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == var for t in targets):
            value = getattr(node, "value", None)
            if value is None:
                return {}
            out: dict[str, int] = {}
            for n in ast.walk(value):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    out.setdefault(n.value, n.lineno)
            return out
    return {}


def load_registry(files: Sequence[Path], root: Path | None) -> ProjectContext:
    """Parse the metric-name registry out of the scanned tree.

    Falls back to the copy that ships next to this package so that
    scanning a partial tree (a single file, a fixture dir) still checks
    against the real registry.
    """
    candidates = [
        f
        for f in files
        if f.resolve().parts[-3:] == ("core", "server", REGISTRY_BASENAME)
    ]
    if not candidates:
        shipped = Path(__file__).resolve().parent.parent / "core" / "server" / REGISTRY_BASENAME
        if shipped.is_file():
            candidates = [shipped]
    for candidate in candidates:
        try:
            tree = ast.parse(candidate.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            continue
        names = _registry_strings(tree, "METRIC_NAMES")
        prefixes = _registry_strings(tree, "METRIC_PREFIXES")
        return ProjectContext(
            metric_names=frozenset(names),
            metric_prefixes=tuple(sorted(prefixes)),
            registry_file=_rel_label(candidate, root),
            metric_name_lines=names,
            metric_prefix_lines=prefixes,
        )
    return ProjectContext(registry_file=None)


@dataclass(slots=True)
class AnalysisResult:
    """Everything one run produced, pre-split against the baseline."""

    findings: list[Finding] = field(default_factory=list)    # active (not baselined)
    suppressed: list[Finding] = field(default_factory=list)  # baselined
    stale_entries: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    rule_versions: dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def ok(self) -> bool:
        """No active error-severity findings (warns report but don't gate)."""
        return not self.errors


def _want(rule_id: str, select: frozenset[str] | None, ignore: frozenset[str]) -> bool:
    if rule_id == PARSE_RULE_ID:
        return True  # an unparseable file always gates
    if select is not None and rule_id not in select:
        return False
    return rule_id not in ignore


def analyze(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
    baseline: Baseline | None = None,
    root: Path | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
    restrict_to: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run both rule passes over every ``*.py`` under ``paths``.

    ``select``/``ignore`` filter by rule id (WL000 parse failures are
    never filtered).  ``restrict_to`` keeps only findings whose file
    label is in the given set — the ``--diff`` reporting filter.
    """
    path_objs = [Path(p) for p in paths]
    if root is None:
        for p in path_objs:
            root = find_repo_root(p if p.is_dir() else p.parent)
            if root is not None:
                break
    files = iter_python_files(path_objs)
    project = load_registry(files, root)
    selected = frozenset(select) if select is not None else None
    ignored = frozenset(ignore)
    file_rules = [
        r
        for r in (list(rules) if rules is not None else default_rules())
        if _want(r.rule_id, selected, ignored)
    ]
    graph_rules = [
        r
        for r in (
            list(project_rules)
            if project_rules is not None
            else default_project_rules()
        )
        if _want(r.rule_id, selected, ignored)
    ]

    findings: list[Finding] = []
    parsed: list[tuple[str, str | None, ast.Module]] = []
    contexts: list[FileContext] = []
    for path in files:
        rel = _rel_label(path, root)
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", None) or 1
            findings.append(
                Finding(rel, int(line), PARSE_RULE_ID, f"file could not be analysed: {exc}")
            )
            continue
        parsed.append((rel, package_of(path), tree))
        contexts.append(
            FileContext(
                rel=rel, text=text, tree=tree, package=package_of(path), project=project
            )
        )

    for ctx in contexts:
        for rule in file_rules:
            findings.extend(rule.check(ctx))

    if graph_rules:
        graph = build_graph(parsed, project)
        for project_rule in graph_rules:
            findings.extend(project_rule.check_project(graph))

    if restrict_to is not None:
        keep = set(restrict_to)
        findings = [f for f in findings if f.file in keep]

    findings.sort()
    versions = {r.rule_id: rule_version(r) for r in (*file_rules, *graph_rules)}
    result = AnalysisResult(files_scanned=len(files), rule_versions=versions)
    if baseline is None:
        result.findings = findings
    else:
        result.findings, result.suppressed, result.stale_entries = baseline.split(
            findings, rule_versions=versions
        )
        # An entry is only provably stale when its rule actually ran over
        # its file this run.  Under --select/--ignore or a path/--diff
        # restriction the unmatched entries may still be live in a full
        # sweep; flagging them (and letting --write-baseline drop them)
        # would delete real suppressions.
        examined = {ctx.rel for ctx in contexts}
        if restrict_to is not None:
            examined &= set(restrict_to)
        result.stale_entries = [
            e
            for e in result.stale_entries
            if e.rule in versions and e.file in examined
        ]
    return result
