"""Numerical laboratory for backward orbits of holomorphic self-maps of the
complex unit ball."""

from .errors import (ConfigError, DilationOutOfScope, DimensionMismatch,
                     DomainError, InvariantViolation, NumericalError)
from .geometry import (Automorphism, BallPoint, BoundaryPoint, Horosphere,
                       KoranyiRegion, apply, ball_point, basis_boundary_point,
                       boundary_adapted_point, boundary_point,
                       dist_to_geodesic, geodesic_point, horofunction,
                       horosphere_contains, hyperbolic_automorphism,
                       identity_automorphism, inverse, kob_dist,
                       kob_dist_origin, koranyi_contains, mobius_involution,
                       parabolic_automorphism, unitary_automorphism)
from .catalog import (BrfpReport, DynamicsClass, SelfMap, blaschke_product,
                      catalog_build, certify_brfp, classify_dynamics,
                      compose_maps, conjugate_map, disc_mobius,
                      ensure_pole_clearance, estimate_dilation, evaluate,
                      hyperbolic_selfmap, is_boundary_fixed, iterate_map,
                      jacobian, parabolic_selfmap, self_map_check,
                      warped_product)
from .orbits import (BackwardOrbitResult, OrbitParams, OrbitSegment,
                     StoppingRecord, backward_orbit_via_preimages,
                     construct_backward_orbit, harvest_chain,
                     newton_preimage, orbit_csv, radial_anchor,
                     radial_anchors, stopping_time, write_orbit_csv)
from .analysis import (OrbitComparison, PreModel, PremodelReport,
                       RegionReport, ShiftResult, embedded_disc_premodel,
                       identity_premodel, orbit_distance_profile,
                       premodel_validate, region_equivalence_check,
                       shift_recovery, tube_covering_check)

__version__ = "0.1.0"
