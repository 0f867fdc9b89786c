"""Single table of numerical tolerances used across the package.

Every threshold that a verdict or validation depends on lives here, so
boundary semantics are pinned in one place.
"""

# max |m - m^dagger| entry allowed before a matrix is rejected as non-Hermitian
HERMITICITY_TOL = 1e-12

# a channel counts as completely positive when min Choi eigenvalue >= -CP_TOL
CP_TOL = 1e-10

# a channel counts as entanglement-breaking when the partial-transpose
# margin is >= -EB_BOUNDARY_TOL (the separable set is closed, so the
# boundary belongs to the EB side)
EB_BOUNDARY_TOL = 1e-10

# slack for closed-form inequality criteria evaluated in floating point
CLOSED_FORM_TOL = 1e-12

# |margin| band inside which closed-form and numeric verdicts are not
# required to agree (eigensolver noise could flip a strict comparison)
KNIFE_EDGE_BAND = 1e-9

# a singular value at or below this counts as vanishing (rank deficiency)
RANK_TOL = 1e-10

# density-operator validation: trace-1 and Hermiticity slack
STATE_TOL = 1e-10

# imaginary part allowed in coherence-vector coefficients before rejection
COHERENCE_IMAG_TOL = 1e-12

# canonical translation components at or below this count as exactly zero
# when choosing the closed-form branch (unital, single-axis or none)
AXIS_ZERO_TOL = 1e-12

# rotation axes must be unit vectors within this
AXIS_NORM_TOL = 1e-10

# abstract amendment maps may leave the state set; outputs with an
# eigenvalue below -OUTPUT_PSD_TOL are reported as non-positive
OUTPUT_PSD_TOL = 1e-8
