"""sawtoothlab: a deterministic laboratory for the epoch-boundary sawtooth
pattern that adaptive gradient optimizers imprint on training loss curves.

The package replicates the pattern on an incremental quadratic testbed,
instruments the optimizer state around epoch boundaries, and fits small
closed-form models to the recorded probe series. Each public name is
imported from the module that defines it; the package root holds only
`__version__`.
"""

__version__ = "0.1.0"
