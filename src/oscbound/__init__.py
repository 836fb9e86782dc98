"""oscbound: constructive oscillation bounds and a torsion-function stability lab.

The package has two layers.  The analytic layer (:mod:`oscbound.constants`,
:mod:`oscbound.cones`) evaluates closed-form constants and verifies the
pointwise cone inequalities they come from by high-order quadrature.  The
numerical layer (:mod:`oscbound.stardomain`, :mod:`oscbound.torsion`,
:mod:`oscbound.identities`, :mod:`oscbound.stability`) solves the torsion
problem on star-shaped planar domains and measures how boundary-shape
deviations control the quantities the analytic layer bounds.  Each name is
imported from the module that defines it; ``oscbound.cli`` is the command
line.
"""

__version__ = "0.1.0"
