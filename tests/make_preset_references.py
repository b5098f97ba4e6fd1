#!/usr/bin/env python3
"""Write tests/data/preset_references.npz, an independent reference for every
homogeneous spectrum of the preset bundles.

Each spectrum is solved point by point: lindblad.steady_state on the generator
from liouvillian_for, read out with probe_absorption.  That path shares the
generator with the sweep kernel the bundles run on, which builds its own from
liouvillian_for too, but not the solver: the kernel solves whole lines in pole
form and reaches steady_state only as its last resort, which no bundle takes.
Arrays are keyed by the bundle's file stem.  Run from the repository root:

    PYTHONPATH=src python3 tests/make_preset_references.py

tests/test_cli.py::TestPresets holds the bundles' homogeneous CSVs to these
arrays.  The ensemble spectra have no reference here yet.
"""

from pathlib import Path

import numpy as np

from eitsim import DetuningPoint, cli, liouvillian_for, probe_absorption, steady_state
from eitsim.spectra import InhomogeneitySpec

REFERENCES = Path(__file__).resolve().parent / "data" / "preset_references.npz"
BUNDLES = ("fig3a", "fig3b", "fig3c")


def homogeneous_rows():
    """(stem, spec, grid, control_detuning) of each homogeneous spectrum of
    BUNDLES, as cli.PRESETS yields them."""
    for name in BUNDLES:
        for stem, spec, grid, shift in cli.PRESETS[name]():
            if not isinstance(shift, InhomogeneitySpec):
                yield stem, spec, grid, shift


def reference(spec, grid, control_detuning: float) -> np.ndarray:
    return np.array([
        probe_absorption(steady_state(liouvillian_for(spec, DetuningPoint(control_detuning, t))),
                         spec)
        for t in grid
    ])


def main() -> None:
    refs = {stem: reference(spec, grid, shift) for stem, spec, grid, shift in homogeneous_rows()}
    REFERENCES.parent.mkdir(exist_ok=True)
    np.savez(REFERENCES, **refs)
    print(f"{REFERENCES}: {len(refs)} spectra")


if __name__ == "__main__":
    main()
