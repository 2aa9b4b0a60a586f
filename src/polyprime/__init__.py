"""Prime values of random integer polynomials, computed at desk scale.

Exact pieces: arithmetic functions on Z, truncated singular series in
rational arithmetic, moment combinatorics, and direct Gowers norms.
Statistical pieces: seeded Monte Carlo experiments whose per-sample
output is reproducible bit for bit for any worker count.

Import each name from its submodule (`polyprime.experiments`,
`polyprime.runio`, ...); the root holds only `__version__`.
"""

from ._version import __version__
