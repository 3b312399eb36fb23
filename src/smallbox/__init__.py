"""Exact counting experiments in small boxes over prime fields: curve and
graph point counts, isomorphism-class censuses of odd-degree Weierstrass
curves, polynomial iteration statistics, exponential-sum diagnostics,
congruence-lattice minima, and the acceptance harness tying them together.
"""

from .boxcount import (Box2, WeilReport, bound_I, bound_J, count_curve_points,
                       count_graph_points, count_matches, weil_error)
from .dynsys import (Trajectory, bound_diameter, diameter, trajectory_length,
                     trajectory_lengths)
from .ffield import FpPolynomial, PrimeModulus, discriminant, is_prime, resultant
from .harness import ExperimentSpec, ResultRecord, emit, run
from .hyperelliptic import (ClassCensus, CubeBox, CurveVector, bound_N,
                            canonical_representative, class_census,
                            class_censuses, count_isomorphic_in_box,
                            isomorphism_scalars, reduce_to_power_congruence,
                            sharpness_witness)
from .lattice import (CongruenceLattice, ConvexBox, cor7_check, lemma6_count,
                      lattice_points_in_box, successive_minima)

__version__ = "0.1.0"
