"""The committed BENCH_*.json artifacts stay well-formed.

One format gate for every artifact the CLI writes: each must exist at
the repo root, parse, carry ``version`` 1 and its benchmark name, sit in
the canonical form the CLI writes (sorted keys, two-space indent,
trailing newline, so CI's ``cmp`` and regeneration diffs stay clean),
and come from a full run, never a ``--quick`` one.  The story each
artifact tells is checked beside its subsystem, in
``tests/<subsystem>/test_bench_artifact.py``, through :func:`load_bench`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: artifact file -> (benchmark name, the command that regenerates it)
ARTIFACTS: dict[str, tuple[str, str]] = {
    "BENCH_elastic.json": (
        "elastic_reshard",
        "python -m repro.cli elastic --out BENCH_elastic.json",
    ),
    "BENCH_fusion.json": (
        "fusion_outage",
        "python -m repro.cli fusion --out BENCH_fusion.json",
    ),
    "BENCH_lifecycle.json": (
        "model_lifecycle",
        "python -m repro.cli lifecycle --action bench --out BENCH_lifecycle.json",
    ),
}


def load_bench(name: str) -> dict:
    """The parsed committed artifact ``name``, failing with its regenerate command."""
    path = ROOT / name
    assert path.is_file(), (
        f"{name} is missing from the repo root; regenerate it with "
        f"`{ARTIFACTS[name][1]}`"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_versioned_and_named(name):
    bench = load_bench(name)
    assert bench["version"] == 1
    assert bench["benchmark"] == ARTIFACTS[name][0]


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_committed_from_a_full_run(name):
    assert load_bench(name)["config"].get("quick") is not True


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_canonical_format(name):
    text = (ROOT / name).read_text()
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
