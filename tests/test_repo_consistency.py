"""Repository-level consistency: docs reference real artefacts, APIs resolve."""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Names kept in an ``__all__`` on purpose while they are deprecated;
#: each must still resolve, and must warn when it does.
_DEPRECATED_NAMES = {"repro.experiments": {"Table1Row"}}


def repo_file(name):
    return REPO_ROOT / name


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.grids",
            "repro.core",
            "repro.configs",
            "repro.evolution",
            "repro.baselines",
            "repro.extensions",
            "repro.analysis",
            "repro.io",
            "repro.experiments",
        ],
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"
        deprecated = _DEPRECATED_NAMES.get(module_name, ())
        for name in getattr(module, "__all__", []):
            if name in deprecated:
                with pytest.deprecated_call():
                    assert hasattr(module, name), f"{module_name}.{name} missing"
            else:
                assert hasattr(module, name), f"{module_name}.{name} missing"


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/SEMANTICS.md", "docs/API.md"],
    )
    def test_document_present_and_nonempty(self, name):
        path = repo_file(name)
        assert path.exists(), name
        assert len(path.read_text()) > 500, name


class TestDocReferences:
    def test_benches_named_in_docs_exist(self):
        pattern = re.compile(r"bench_[a-z0-9_]+\.py")
        for document in ("DESIGN.md", "EXPERIMENTS.md"):
            text = repo_file(document).read_text()
            for bench_name in set(pattern.findall(text)):
                assert (REPO_ROOT / "benchmarks" / bench_name).exists(), (
                    f"{document} references missing {bench_name}"
                )

    def test_every_bench_is_referenced_in_design_or_experiments(self):
        documented = set()
        for document in ("DESIGN.md", "EXPERIMENTS.md"):
            documented |= set(
                re.findall(r"bench_[a-z0-9_]+\.py", repo_file(document).read_text())
            )
        for bench in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in documented, (
                f"{bench.name} is not mentioned in DESIGN.md or EXPERIMENTS.md"
            )

    def test_examples_named_in_readme_exist(self):
        text = repo_file("README.md").read_text()
        for example_name in set(re.findall(r"examples/[a-z0-9_]+\.py", text)):
            assert (REPO_ROOT / example_name).exists(), example_name

    def test_every_example_is_in_the_readme(self):
        text = repo_file("README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert f"examples/{example.name}" in text, (
                f"examples/{example.name} missing from the README"
            )

    def test_cli_subcommands_in_readme_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers_action = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        known = set(subparsers_action.choices)
        text = repo_file("README.md").read_text()
        for command in set(
            re.findall(r"^repro-a2a ([a-z0-9-]+)", text, flags=re.MULTILINE)
        ):
            assert command in known, f"README shows unknown subcommand {command}"


class TestModulesDocumented:
    def test_every_module_has_a_docstring(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text()
            stripped = text.lstrip()
            assert stripped.startswith('"""') or stripped.startswith("'''"), (
                f"{path.relative_to(REPO_ROOT)} lacks a module docstring"
            )
