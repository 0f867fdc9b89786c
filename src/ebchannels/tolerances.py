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

# the amendment search's best trial is the lowest index whose Jacobi
# violation is within AMEND_TIE_TOL of the largest.  Far above the LAPACK
# screen's band delta = 64 * 4 * eps * ||H||_F <= 5.7e-14: partial
# transposition permutes entries, so ||J^Gamma||_F = ||J||_F <= tr J = 1
# for a Choi state J.  Two trials that tie to rounding are then decided
# from their LAPACK bounds alone, with one trial swept.  Far below
# EB_BOUNDARY_TOL, so the reported violation stays within the slack of
# the EB verdict of the largest one
AMEND_TIE_TOL = 1e-12

# abstract amendment maps may leave the state set; outputs with an
# eigenvalue below -OUTPUT_PSD_TOL are reported as non-positive
OUTPUT_PSD_TOL = 1e-8
