"""The benchmark's frozen spec files still parse to the points it runs.

The benchmark loads perfbench/specs/*.spec with `load_spec` and stays frozen
while the package changes, so a parser regression would break it unseen.
This parses the files read-only and never runs the benchmark.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from sawtoothlab.cli import _resolve_spec_path
from sawtoothlab.specfile import load_spec

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"

# spec file -> (name, point labels, workers, emit)
PINNED = {
    "reference_b1.spec": ("shuffle_reference", ["point_000"], 1, ("csv", "svg")),
    "minibatch_sweep.spec": (
        "minibatch_sweep",
        ["point_000_batch_size=4", "point_001_batch_size=16"],
        2,
        ("csv",),
    ),
}


def test_every_frozen_spec_is_pinned():
    assert sorted(p.name for p in SPECS.glob("*.spec")) == sorted(PINNED)


@pytest.mark.parametrize("filename", sorted(PINNED))
def test_frozen_spec_points(filename):
    name, labels, workers, emit = PINNED[filename]
    spec = load_spec(SPECS / filename)
    assert (spec.name, spec.workers, spec.emit, spec.out, spec.window) == (
        name, workers, emit, None, None
    )
    assert spec.num_points() == len(labels)
    assert [label for label, _ in spec.expand()] == labels


def test_frozen_specs_run_the_bundled_reference_configuration():
    [(_, reference)] = load_spec(_resolve_spec_path("shuffle_reference")).expand()
    [(_, b1)] = load_spec(SPECS / "reference_b1.spec").expand()
    assert b1 == reference
    sweep = [cfg for _, cfg in load_spec(SPECS / "minibatch_sweep.spec").expand()]
    assert sweep == [replace(reference, batch_size=b) for b in (4, 16)]
