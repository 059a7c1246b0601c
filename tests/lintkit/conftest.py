"""Shared fixtures for the lintkit fixture suite.

Each test materializes a tiny fake project tree under ``tmp_path``
(file paths mimic ``src/repro/<layer>/...`` so layer-scoped rules see
the right layer) and lints it with an explicit rule selection, so
fixtures exercising one rule are not polluted by findings from
another.
"""

import textwrap

import pytest

from repro.lintkit import lint_project, load_project


def build_project(tmp_path, files):
    """Write ``files`` (rel path -> source) under ``tmp_path`` and load
    them as a lint :class:`~repro.lintkit.context.Project` rooted
    there."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return load_project([str(tmp_path)], root=str(tmp_path))


@pytest.fixture
def make_project(tmp_path):
    def make(files):
        return build_project(tmp_path, files)

    return make


@pytest.fixture
def lint_tree(make_project):
    """Build a project and lint it; ``rules`` selects the rules run."""

    def run(files, rules=None):
        project = make_project(files)
        return lint_project(project, only_rules=rules)

    return run


def rule_ids(result):
    """Sorted unique rule ids present in a result's findings."""
    return sorted({f.rule for f in result.findings})


def messages(result):
    return [f.message for f in result.findings]
