"""Executable-documentation checks: the docs cannot drift from the code.

Three layers of enforcement:

* every fenced ```python block of ``README.md``, ``docs/api.md``, and
  ``docs/operations.md`` is executed in file order (one shared namespace
  per file), so quickstarts and the API reference stay runnable;
* every relative markdown link in the README and ``docs/`` must resolve to
  an existing file (the docs-link checker — cross-references cannot rot);
* the wire-format facts the docs state are pinned: the frame-v3 name and
  version byte quoted by the CLI help, ``docs/architecture.md``, and
  ``docs/api.md`` must agree with the codec, including decoding the
  documented hex example ``44440300`` (the empty frame).

Shell blocks are not executed but are sanity-checked to reference real CLI
subcommands.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"

#: Markdown files whose ```python blocks must execute (the executable-docs
#: surface).  Order matters only within one file: blocks share a namespace
#: and run top to bottom.
EXECUTABLE_DOCS = [
    README,
    REPO_ROOT / "docs" / "api.md",
    REPO_ROOT / "docs" / "operations.md",
]

#: Markdown files whose relative links are checked for existence.
LINKED_DOCS = [README] + sorted((REPO_ROOT / "docs").glob("*.md"))

_FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _blocks(path: Path, language: str):
    text = path.read_text(encoding="utf-8")
    return [match.group(2) for match in _FENCE.finditer(text) if match.group(1) == language]


def _python_cases():
    cases = []
    for path in EXECUTABLE_DOCS:
        for index in range(len(_blocks(path, "python"))):
            cases.append(pytest.param(path, index, id=f"{path.name}[{index}]"))
    return cases


def test_every_executable_doc_exists_and_has_examples():
    for path in EXECUTABLE_DOCS:
        assert path.is_file(), f"{path} is missing"
        assert _blocks(path, "python"), f"{path.name} should carry runnable examples"
    assert len(_blocks(README, "python")) >= 4, "README should carry a runnable quickstart"


@pytest.mark.parametrize("path,index", _python_cases())
def test_doc_python_blocks_execute(path, index):
    """Each ```python block runs without raising (cumulative namespace)."""
    blocks = _blocks(path, "python")
    namespace: dict = {}
    # Re-run the earlier blocks so each parametrized case is independent yet
    # later blocks may rely on names introduced earlier in the same file.
    for position, block in enumerate(blocks[: index + 1]):
        exec(compile(block, f"{path.name}[python block {position}]", "exec"), namespace)


def test_readme_bash_blocks_reference_real_subcommands():
    from repro.cli import build_parser

    parser_help = build_parser().format_help()
    for block in _blocks(README, "bash"):
        for match in re.finditer(r"python -m repro (\S+)", block):
            subcommand = match.group(1)
            if subcommand.startswith("-"):
                continue
            assert subcommand in parser_help, f"README references unknown subcommand {subcommand!r}"


def test_architecture_guide_exists_and_mentions_every_layer():
    guide = REPO_ROOT / "docs" / "architecture.md"
    assert guide.is_file(), "docs/architecture.md is missing"
    text = guide.read_text(encoding="utf-8")
    for layer in ("mapping", "store", "sketch", "registry", "serialization", "monitoring", "evaluation"):
        assert layer in text.lower(), f"architecture guide does not cover the {layer} layer"
    assert "add_batch" in text and "key_batch" in text, "batch path must be documented"


def test_markdown_links_resolve():
    """Relative links in the README and docs/ must point at existing files."""
    for path in LINKED_DOCS:
        for match in _LINK.finditer(path.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (path.parent / target_path).resolve()
            assert resolved.exists(), (
                f"{path.relative_to(REPO_ROOT)} links to missing {target!r}"
            )


class TestFrameV3Pins:
    """The frame name/version byte the docs and CLI quote match the codec."""

    def test_documented_hex_example_decodes(self):
        from repro.serialization.frame import decode_frame, encode_frame

        assert encode_frame([]) == bytes.fromhex("44440300")
        assert decode_frame(bytes.fromhex("44440300")) == []

    def test_version_byte_is_0x03_on_real_frames(self):
        import numpy as np

        from repro.registry import SketchRegistry

        registry = SketchRegistry()
        registry.add_batch("m", np.array([1.0, 2.0, 3.0]), tags={"h": "a"})
        payload = registry.to_frame()
        assert payload[:2] == b"DD"
        assert payload[2] == 0x03

    def test_cli_help_and_docs_agree_on_the_name_and_version(self):
        from repro.cli import build_parser

        simulate = build_parser()._subparsers._group_actions[0].choices["simulate"]
        help_text = simulate.format_help()
        assert "frame v3" in help_text
        assert "0x03" in help_text

        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "frame v3" in architecture
        assert "0x03" in architecture
        api = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert "0x03" in api
        assert "44440300" in api, "the documented hex example must stay in the API reference"
