"""Shared default tolerances.

Every matrix in scope is small (n <= 64) with entries of order 1..10; the
defaults assume that scale.  "Relative" thresholds are multiplied by
max(1, scale) where scale is the Frobenius norm or the spectral radius of
the object at hand.
"""

# Structural identities built from closed-form entries (absolute).
EPS_STRUCT = 1e-12

# Reality threshold on |Im lambda|, relative to max(1, spectral radius).
EPS_REAL = 1e-9

# Non-degeneracy gate on the minimal eigenvalue gap, relative to ||H||_F.
EPS_GAP = 1e-7

# Residual bound for eigenpairs and trace consistency, relative.
EPS_SPEC = 1e-10

# Intertwiner residual bound for metric candidates, relative.
EPS_METRIC = 1e-10

# Eigenvector-angle acceptance at a located coalescence (radians).
ANGLE_TOL = 1e-4

# Working precision (decimal digits) of the characteristic-polynomial oracle.
ORACLE_DPS = 50

# Default coarse-grid density for domain scans (points per unit t).
POINTS_PER_UNIT = 2001

# Points of the real-count curve that `domains --svg` draws by default.
PROFILE_PLOT_STEPS = 801

# Default coarse-scan points of a metric positivity interval.
POSITIVITY_STEPS = 1001

# Largest grid a scan or sweep may build, about 50 units of t at the default
# density.  Each point holds an n x n matrix and its eigenvalues at once.
MAX_GRID_POINTS = 100_000
